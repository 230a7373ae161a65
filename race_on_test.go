//go:build race

package fmi

// raceEnabled reports whether this binary was built with -race: the
// detector allocates beside the code under test, so allocation pins
// check only their shape there.
const raceEnabled = true
