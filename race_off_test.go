//go:build !race

package fmi

const raceEnabled = false
