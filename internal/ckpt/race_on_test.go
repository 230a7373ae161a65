//go:build race

package ckpt

// raceEnabled reports whether this binary was built with -race; the
// rebuild fault matrix then covers smaller groups to fit the
// detector's per-op overhead.
const raceEnabled = true
