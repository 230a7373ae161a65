// Package leakcheck is the test-side goroutine-leak check: a finished
// job, server or test must leave no goroutine behind, since a
// long-lived process (fmiserve, a benchmark loop) runs job after job
// and whatever a job leaves running keeps its state reachable.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Settle waits up to a second for the goroutine count to fall back to
// base. It returns nil once it has, or an error that lists the stacks
// of whatever is still running, leaving out the test machinery's own.
func Settle(base int) error {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n <= base {
		return nil
	}
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	return fmt.Errorf("%d goroutines, %d before; still running:\n%s", n, base, leakedStacks(dump))
}

// leakedStacks keeps the goroutines of a full stack dump that are not
// the test machinery's own.
func leakedStacks(dump string) string {
	var keep []string
	for _, g := range strings.Split(dump, "\n\n") {
		if strings.Contains(g, "testing.(*T).Run") || strings.Contains(g, "testing.tRunner") ||
			strings.Contains(g, "testing.(*M)") || strings.Contains(g, "leakcheck.Settle") {
			continue
		}
		keep = append(keep, g)
	}
	return strings.Join(keep, "\n\n")
}
