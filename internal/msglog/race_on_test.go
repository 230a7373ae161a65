//go:build race

package msglog

// raceEnabled reports whether this binary was built with -race: the
// race runtime makes sync.Pool drop a share of its Puts at random, so
// the arena cannot hold a steady state for the allocation pins.
const raceEnabled = true
