// Package cluster is a miniature of the simulated-cluster package: all
// wall-clock reads and sleeps here must route through the cluster's
// event hooks or the transport's observation delays.
package cluster

import "time"

// Tick exercises each forbidden call.
func Tick() time.Time {
	time.Sleep(time.Millisecond) // want "direct time.Sleep in simulated package \"cluster\""
	<-time.After(time.Millisecond) // want "direct time.After in simulated package \"cluster\""
	t := time.NewTimer(time.Second) // want "direct time.NewTimer in simulated package \"cluster\""
	defer t.Stop()
	return time.Now() // want "direct time.Now in simulated package \"cluster\""
}

// Durations and arithmetic on time values are fine; only wall-clock
// acquisition is restricted.
func Clean(d time.Duration, base time.Time) time.Time {
	return base.Add(d * 2)
}

// Suppressed documents a deliberate wall-clock dependency.
func Suppressed() time.Time {
	//fmilint:ignore simtime fixture demonstrates a justified wall-clock read
	return time.Now()
}
