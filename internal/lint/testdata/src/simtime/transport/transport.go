// Package transport is allowlisted: the failure-observation delays'
// implementation deliberately deals in wall-clock time.
package transport

import "time"

// Deliver models a delivery delay; allowed here.
func Deliver() {
	time.Sleep(time.Microsecond)
}
