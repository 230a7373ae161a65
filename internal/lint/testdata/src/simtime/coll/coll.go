// Package coll is a miniature of the collective-schedule package: it
// stays restricted even after the serve exemption — schedule timing
// must come from the cluster's event hooks, never the host clock.
package coll

import "time"

// Round exercises the forbidden calls in a schedule-like context.
func Round() time.Time {
	time.Sleep(time.Microsecond) // want "direct time.Sleep in simulated package \"coll\""
	return time.Now()            // want "direct time.Now in simulated package \"coll\""
}

// Budget arithmetic on durations stays fine.
func Budget(d time.Duration) time.Duration {
	return d / 2
}
