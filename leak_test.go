package fmi

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"fmi/internal/leakcheck"
)

// TestJobLeavesNoGoroutines runs jobs back to back on both transports
// under every recovery protocol, failure-free and with one scripted
// kill, then grow and shrink jobs under local and replica recovery, and
// checks that each finished job leaves no goroutine behind: a
// long-lived process (fmiserve, a benchmark loop) runs job after job,
// and whatever a job leaves running keeps its task, ring and buffers
// reachable.
func TestJobLeavesNoGoroutines(t *testing.T) {
	const ranks, iters = 4, 8
	base := runtime.NumGoroutine()
	for tp, tpName := range map[TransportKind]string{ChanTransport: "chan", TCPTransport: "tcp"} {
		for _, mode := range []string{"global", "local", "replica"} {
			for _, kill := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/kill=%v", tpName, mode, kill)
				var results sync.Map
				cfg := fastCfg(ranks, 1, 1, 2)
				cfg.Transport = tp
				cfg.Recovery = mode
				if kill {
					cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: 1}}}
				}
				rep, err := Run(cfg, iterApp(iters, &results))
				if err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
				if kill && rep.FailuresInjected == 0 {
					t.Fatalf("%s: the fault never fired", name)
				}
				checkGoroutines(t, name, base)
			}
		}
	}
	// Elastic jobs: a grow or shrink fence rebuilds every rank's
	// generation under the new view, and each rebuilt generation's
	// failure watcher must end with the job too.
	for _, mode := range []string{"local", "replica"} {
		for _, dir := range []struct {
			name          string
			ranks, target int
		}{{"grow", 4, 6}, {"shrink", 6, 4}} {
			name := fmt.Sprintf("chan/%s/%s", mode, dir.name)
			var results, sizes sync.Map
			cfg := elasticCfg(dir.ranks, 4, 2)
			cfg.Recovery = mode
			if _, err := Run(cfg, elasticApp(iters, 3, dir.target, &results, &sizes)); err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			checkElastic(t, dir.target, iters, &results, &sizes)
			checkGoroutines(t, name, base)
		}
	}
}

// checkGoroutines waits up to a second for the goroutine count to fall
// back to base and fails with the stacks of whatever is still running.
func checkGoroutines(t *testing.T, name string, base int) {
	t.Helper()
	if err := leakcheck.Settle(base); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestMain runs the package's tests and then fails the run if they left
// goroutines behind: any root test's job must end completely.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := leakcheck.Settle(base); err != nil {
			fmt.Fprintf(os.Stderr, "goroutines left behind by the tests: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}
