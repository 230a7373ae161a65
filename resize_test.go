package fmi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"fmi/internal/view"
)

// Online reconfiguration tests (ISSUE 8): a running job grows or
// shrinks between loop iterations without restarting. Every iteration
// computes a world checksum that depends on the CURRENT world size, so
// a rank computing with a stale membership, a joiner entering at the
// wrong iteration, or a survivor rolling back across the fence all
// produce a wrong sum. Faults injected around the fence exercise the
// abort/re-arm path and the post-fence dirty window in all three
// recovery modes.

// elasticApp runs iters iterations; at iteration resizeAt rank 0
// requests a resize to target ranks. Each iteration verifies the
// size-dependent allreduce checksum inline (contribution id*1000 +
// rank + 1, so the expected sum is sz*(id*1000) + sz*(sz+1)/2 for the
// world size sz in effect that iteration). Finishing ranks record
// their iteration count and last observed world size.
func elasticApp(iters, resizeAt, target int, results, sizes *sync.Map) App {
	return func(env *Env) error {
		state := make([]byte, 16)
		lastSize := 0
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			if n == resizeAt && env.Rank() == 0 {
				// Re-execution after a rollback may re-request: a second
				// call while the fence is armed (or after it committed,
				// when the target equals the new size) is rejected or a
				// no-op — both harmless.
				_ = env.Resize(target)
			}
			sz := env.Size()
			lastSize = sz
			sum, err := AllreduceInt64(env.World(), SumInt64(), int64(n*1000+env.Rank()+1))
			if err != nil {
				continue // failure detected: back to Loop to recover
			}
			want := int64(sz)*int64(n*1000) + int64(sz)*int64(sz+1)/2
			if sum[0] != want {
				return fmt.Errorf("rank %d iter %d (size %d): sum %d, want %d",
					env.Rank(), n, sz, sum[0], want)
			}
			acc := binary.LittleEndian.Uint64(state[8:]) + 1
			binary.LittleEndian.PutUint64(state[8:], acc)
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
		sizes.Store(env.Rank(), lastSize)
		return env.Finalize()
	}
}

// checkElastic asserts that exactly the target world finished, every
// finisher saw the final size, and rank 0 (a launch survivor) ran all
// its iterations.
func checkElastic(t *testing.T, target, iters int, results, sizes *sync.Map) {
	t.Helper()
	count := 0
	results.Range(func(k, v any) bool {
		count++
		return true
	})
	if count != target {
		t.Fatalf("finishing ranks = %d, want %d", count, target)
	}
	sizes.Range(func(k, v any) bool {
		if v.(int) != target {
			t.Errorf("rank %v finished at world size %d, want %d", k, v, target)
		}
		return true
	})
	if v, ok := results.Load(0); !ok || v.(int64) != int64(iters) {
		t.Errorf("rank 0 completed %v iterations, want %d", v, iters)
	}
}

func elasticCfg(ranks, spares, interval int) Config {
	cfg := fastCfg(ranks, 1, spares, interval)
	cfg.Elastic = true
	return cfg
}

func TestResizeGrowSmoke(t *testing.T) {
	var results, sizes sync.Map
	rep, err := Run(elasticCfg(4, 4, 2), elasticApp(10, 3, 6, &results, &sizes))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkElastic(t, 6, 10, &results, &sizes)
	if rep.MaxLoopID < 9 {
		t.Errorf("MaxLoopID = %d, want >= 9", rep.MaxLoopID)
	}
}

func TestResizeShrinkSmoke(t *testing.T) {
	var results, sizes sync.Map
	_, err := Run(elasticCfg(6, 2, 2), elasticApp(10, 3, 4, &results, &sizes))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkElastic(t, 4, 10, &results, &sizes)
}

// TestResizeKillMatrix crosses {grow, shrink} x {chan, tcp} x
// {global, local, replica} with a mid-run kill landing near the fence:
// the job must commit the resize, recover the kill, and keep every
// iteration's size-dependent checksum exact.
func TestResizeKillMatrix(t *testing.T) {
	const (
		iters    = 12
		resizeAt = 3
		victim   = 1
	)
	dirs := []struct {
		name          string
		ranks, target int
	}{
		{"grow", 4, 6},
		{"shrink", 6, 4},
	}
	transports := []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	}
	for _, dir := range dirs {
		for _, tp := range transports {
			for _, recovery := range []string{"global", "local", "replica"} {
				t.Run(fmt.Sprintf("%s/%s/%s", dir.name, tp.name, recovery), func(t *testing.T) {
					var results, sizes sync.Map
					cfg := elasticCfg(dir.ranks, 6, 2)
					cfg.Transport = tp.kind
					cfg.Recovery = recovery
					cfg.Faults = &FaultPlan{Script: []Fault{
						{AfterLoop: 6, Node: -1, Rank: victim},
					}}
					rep, err := Run(cfg, elasticApp(iters, resizeAt, dir.target, &results, &sizes))
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if rep.FailuresInjected == 0 {
						t.Fatal("the fault never fired")
					}
					if recovery == "local" {
						checkNoHeld(t, rep)
					}
					checkElastic(t, dir.target, iters, &results, &sizes)
				})
			}
		}
	}
}

// TestViewVersionProperty drives two resizes (grow then shrink) and
// checks the membership safety properties from inside the application:
// every rank's observed view-version sequence is strictly monotonic
// (+1 steps), a version never maps to two different world sizes, and
// all launch survivors observe the identical sequence.
func TestViewVersionProperty(t *testing.T) {
	const iters = 14
	hist := view.NewHistory()
	var mu sync.Mutex
	seen := map[int]uint64{} // rank -> last observed version
	app := func(env *Env) error {
		state := make([]byte, 16)
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			v, sz := env.ViewVersion(), env.Size()
			mu.Lock()
			last, ok := seen[env.Rank()]
			if !ok || v != last {
				hist.Observe(env.Rank(), v, sz)
				seen[env.Rank()] = v
			}
			mu.Unlock()
			if env.Rank() == 0 {
				if n == 3 {
					_ = env.Resize(6)
				}
				if n == 8 {
					_ = env.Resize(5)
				}
			}
			if _, err := AllreduceInt64(env.World(), SumInt64(), int64(n)); err != nil {
				continue
			}
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		return env.Finalize()
	}
	if _, err := Run(elasticCfg(4, 4, 2), app); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := hist.Validate(); err != nil {
		t.Fatal(err)
	}
	seqs := hist.Sequences()
	// Launch ranks 0..3 survive both resizes and must agree exactly.
	want := fmt.Sprint(seqs[0])
	if len(seqs[0]) != 3 {
		t.Fatalf("rank 0 observed %v, want 3 versions (launch + 2 resizes)", seqs[0])
	}
	for r := 1; r < 4; r++ {
		if fmt.Sprint(seqs[r]) != want {
			t.Fatalf("rank %d observed %v, rank 0 observed %s", r, seqs[r], want)
		}
	}
}

// TestElasticStoreRebalance submits store objects before a shrink and
// verifies they survive the evacuation of the retiring ranks' nodes.
func TestElasticStoreRebalance(t *testing.T) {
	const iters = 10
	var results, sizes sync.Map
	var loadErr error
	var mu sync.Mutex
	app := func(env *Env) error {
		state := make([]byte, 16)
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			if n == 1 {
				key := fmt.Sprintf("obj/%d", env.Rank())
				if err := env.Store().Submit(key, []byte(fmt.Sprintf("payload-%d", env.Rank()))); err != nil {
					return err
				}
			}
			if n == 3 && env.Rank() == 0 {
				_ = env.Resize(4)
			}
			if n == iters-1 {
				// After the shrink: every object must still be loadable,
				// including those submitted by retired ranks.
				for r := 0; r < 6; r++ {
					key := fmt.Sprintf("obj/%d", r)
					data, err := env.Store().Load(key)
					if err != nil || string(data) != fmt.Sprintf("payload-%d", r) {
						mu.Lock()
						loadErr = fmt.Errorf("rank %d: Load(%s) = %q, %v", env.Rank(), key, data, err)
						mu.Unlock()
					}
				}
			}
			if _, err := AllreduceInt64(env.World(), SumInt64(), 1); err != nil {
				continue
			}
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(iters))
		sizes.Store(env.Rank(), env.Size())
		return env.Finalize()
	}
	if _, err := Run(elasticCfg(6, 2, 2), app); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	checkElastic(t, 4, iters, &results, &sizes)
}

// TestResizeRejectedWhenNotElastic pins the gate: a non-elastic job
// rejects Env.Resize.
func TestResizeRejectedWhenNotElastic(t *testing.T) {
	var gotErr error
	app := func(env *Env) error {
		for {
			n := env.Loop()
			if n >= 2 {
				break
			}
			if env.Rank() == 0 && n == 0 {
				gotErr = env.Resize(8)
			}
		}
		return env.Finalize()
	}
	if _, err := Run(fastCfg(4, 1, 0, 2), app); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotErr == nil {
		t.Fatal("Resize on a non-elastic job succeeded, want an error")
	}
}
