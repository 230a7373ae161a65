package fmi

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fastCfg returns a config with millisecond failure observation for
// quick tests.
func fastCfg(ranks, ppn, spares, interval int) Config {
	return Config{
		Ranks: ranks, ProcsPerNode: ppn, SpareNodes: spares,
		CheckpointInterval: interval, XORGroupSize: 4,
		DetectDelay: 2 * time.Millisecond, PropDelay: time.Millisecond,
		Timeout: 60 * time.Second,
	}
}

// iterApp counts iterations with a checkpointed counter and a world
// Allreduce each round; results records each rank's final sum.
func iterApp(iters int, results *sync.Map) App {
	return func(env *Env) error {
		state := make([]byte, 16)
		world := env.World()
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			sum, err := AllreduceInt64(world, SumInt64(), int64(n+env.Rank()))
			if err != nil {
				continue
			}
			acc := int64(binary.LittleEndian.Uint64(state[8:])) + sum[0]
			binary.LittleEndian.PutUint64(state[8:], uint64(acc))
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
		return env.Finalize()
	}
}

func expectedIterSum(ranks, iters int) int64 {
	var total int64
	for n := 0; n < iters; n++ {
		for r := 0; r < ranks; r++ {
			total += int64(n + r)
		}
	}
	return total
}

func TestRunFailureFree(t *testing.T) {
	var results sync.Map
	rep, err := Run(fastCfg(8, 2, 0, 3), iterApp(9, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := expectedIterSum(8, 9)
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
	if count != 8 {
		t.Fatalf("results = %d", count)
	}
	if rep.Recoveries != 0 || rep.FailuresInjected != 0 {
		t.Fatalf("unexpected failures in failure-free run: %+v", rep)
	}
}

func TestRunWithScriptedFault(t *testing.T) {
	var results sync.Map
	cfg := fastCfg(8, 2, 1, 2)
	cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: 3}}}
	rep, err := Run(cfg, iterApp(10, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", rep.Recoveries)
	}
	want := expectedIterSum(8, 10)
	results.Range(func(k, v any) bool {
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
}

func TestRunRedundancy2CorrelatedFault(t *testing.T) {
	// Public-API plumbing for the RS extension: Redundancy 2 plus a
	// correlated fault taking two group-mate nodes in one event still
	// yields the exact answer, recovering both ranks from memory.
	var results sync.Map
	cfg := fastCfg(4, 1, 4, 2)
	cfg.Redundancy = 2
	cfg.Faults = &FaultPlan{Script: []Fault{
		{AfterLoop: 5, Node: 0, CorrelatedNodes: []int{1}},
	}}
	cfg.Timeout = 120 * time.Second
	rep, err := Run(cfg, iterApp(12, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.FailuresInjected != 1 {
		t.Fatalf("failures injected = %d, want 1 (correlated kill is one event)", rep.FailuresInjected)
	}
	if rep.Recoveries == 0 {
		t.Fatal("no recoveries recorded")
	}
	want := expectedIterSum(4, 12)
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
	if count != 4 {
		t.Fatalf("results = %d, want 4", count)
	}
}

func TestRunThroughPoissonFailures(t *testing.T) {
	// The headline capability: run through random failures with a
	// short MTBF and still produce the exact answer.
	var results sync.Map
	cfg := fastCfg(8, 2, 4, 2)
	cfg.Faults = &FaultPlan{MTBF: 400 * time.Millisecond, MaxFailures: 3, Seed: 11}
	cfg.Timeout = 120 * time.Second
	app := func(env *Env) error {
		state := make([]byte, 16)
		world := env.World()
		for {
			n := env.Loop(state)
			if n >= 25 {
				break
			}
			sum, err := AllreduceInt64(world, SumInt64(), int64(n+env.Rank()))
			if err != nil {
				continue
			}
			time.Sleep(5 * time.Millisecond) // give failures a window
			acc := int64(binary.LittleEndian.Uint64(state[8:])) + sum[0]
			binary.LittleEndian.PutUint64(state[8:], uint64(acc))
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
		return env.Finalize()
	}
	rep, err := Run(cfg, app)
	if err != nil {
		t.Fatalf("Run: %v (injected %d)", err, rep.FailuresInjected)
	}
	want := expectedIterSum(8, 25)
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
	if count != 8 {
		t.Fatalf("results = %d", count)
	}
	t.Logf("injected=%d recoveries=%d ckpts=%d", rep.FailuresInjected, rep.Recoveries, rep.Stats.Checkpoints)
}

func TestPreLoopBcastSurvivesReplacementReplay(t *testing.T) {
	// Configuration broadcast before the loop must be replayable by a
	// restarted process (coordinator-cached collectives).
	var results sync.Map
	cfg := fastCfg(4, 1, 1, 2)
	cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 3, Node: -1, Rank: 2}}}
	app := func(env *Env) error {
		world := env.World()
		var seed []byte
		if env.Rank() == 0 {
			seed = []byte{42}
		}
		got, err := world.Bcast(0, seed)
		if err != nil {
			return err
		}
		state := make([]byte, 8)
		for {
			n := env.Loop(state)
			if n >= 8 {
				break
			}
			if _, err := AllreduceInt64(world, SumInt64(), int64(n)); err != nil {
				continue
			}
			binary.LittleEndian.PutUint64(state, uint64(n+1))
		}
		results.Store(env.Rank(), got[0])
		return env.Finalize()
	}
	if _, err := Run(cfg, app); err != nil {
		t.Fatalf("Run: %v", err)
	}
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(byte) != 42 {
			t.Errorf("rank %v got config %d, want 42", k, v)
		}
		return true
	})
	if count != 4 {
		t.Fatalf("results = %d", count)
	}
}

func TestMultiSegmentCheckpoint(t *testing.T) {
	// Loop with several segments of different sizes.
	var results sync.Map
	cfg := fastCfg(4, 1, 1, 1)
	cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 2, Node: -1, Rank: 0}}}
	app := func(env *Env) error {
		a := make([]byte, 3)
		b := make([]byte, 1000)
		c := make([]byte, 8)
		for {
			n := env.Loop(a, b, c)
			if n >= 6 {
				break
			}
			if err := env.World().Barrier(); err != nil {
				continue
			}
			a[0] = byte(n + 1)
			b[999] = byte(n * 2)
			binary.LittleEndian.PutUint64(c, uint64(n+1))
		}
		results.Store(env.Rank(), [3]byte{a[0], b[999], c[0]})
		return env.Finalize()
	}
	if _, err := Run(cfg, app); err != nil {
		t.Fatalf("Run: %v", err)
	}
	results.Range(func(k, v any) bool {
		got := v.([3]byte)
		if got[0] != 6 || got[1] != 10 || got[2] != 6 {
			t.Errorf("rank %v state = %v", k, got)
		}
		return true
	})
}

func TestOpsRoundtrips(t *testing.T) {
	f := func(v []float64) bool {
		got := BytesFloat64(Float64Bytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] && !(math.IsNaN(got[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v []int64) bool {
		got := BytesInt64(Int64Bytes(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpsSemantics(t *testing.T) {
	acc := Float64Bytes([]float64{1, 5, -2})
	SumFloat64()(acc, Float64Bytes([]float64{2, -1, 0.5}))
	got := BytesFloat64(acc)
	if got[0] != 3 || got[1] != 4 || got[2] != -1.5 {
		t.Fatalf("sum = %v", got)
	}
	acc = Float64Bytes([]float64{1, 5})
	MaxFloat64()(acc, Float64Bytes([]float64{2, 3}))
	got = BytesFloat64(acc)
	if got[0] != 2 || got[1] != 5 {
		t.Fatalf("max = %v", got)
	}
	acc = Float64Bytes([]float64{1, 5})
	MinFloat64()(acc, Float64Bytes([]float64{2, 3}))
	got = BytesFloat64(acc)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("min = %v", got)
	}
	acci := Int64Bytes([]int64{7, -2})
	MaxInt64()(acci, Int64Bytes([]int64{3, 9}))
	goti := BytesInt64(acci)
	if goti[0] != 7 || goti[1] != 9 {
		t.Fatalf("imax = %v", goti)
	}
	accf := Float32Bytes([]float32{1.5})
	SumFloat32()(accf, Float32Bytes([]float32{2.25}))
	if BytesFloat32(accf)[0] != 3.75 {
		t.Fatalf("f32 sum = %v", BytesFloat32(accf))
	}
}

func TestVaidyaAutoTuneThroughPublicAPI(t *testing.T) {
	cfg := fastCfg(4, 1, 0, 0)
	cfg.MTBF = time.Minute
	var intervals sync.Map
	app := func(env *Env) error {
		state := make([]byte, 8)
		for {
			n := env.Loop(state)
			if n >= 20 {
				break
			}
			time.Sleep(2 * time.Millisecond)
			binary.LittleEndian.PutUint64(state, uint64(n+1))
		}
		intervals.Store(env.Rank(), env.CheckpointInterval())
		return env.Finalize()
	}
	if _, err := Run(cfg, app); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// All ranks must agree on the tuned interval.
	var vals []int
	intervals.Range(func(_, v any) bool {
		vals = append(vals, v.(int))
		return true
	})
	for _, v := range vals[1:] {
		if v != vals[0] {
			t.Fatalf("ranks disagree on interval: %v", vals)
		}
	}
	if vals[0] < 1 {
		t.Fatalf("interval = %d", vals[0])
	}
}

func TestMultilevelThroughPublicAPI(t *testing.T) {
	// Level-2 enabled via the public config: two nodes of the same
	// XOR group die at once and the job still completes exactly. The
	// two kills are one correlated event: as two scripted faults they
	// can land in different recovery epochs under load, and each lost
	// node is then rebuildable from level 1.
	var results sync.Map
	cfg := fastCfg(4, 1, 3, 2)
	cfg.Level2Every = 1
	cfg.MaxEpochs = 32
	cfg.Faults = &FaultPlan{Script: []Fault{
		{AfterLoop: 4, Node: 0, CorrelatedNodes: []int{1}},
	}}
	rep, err := Run(cfg, iterApp(10, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := expectedIterSum(4, 10)
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
	if count != 4 {
		t.Fatalf("results = %d", count)
	}
	if rep.Stats.L2Restores == 0 || rep.Stats.L2Checkpoints == 0 {
		t.Fatalf("level-2 machinery unused: %+v", rep.Stats)
	}
}

func TestRandomizedFailureSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	// Several seeds of Poisson failure injection; every run must end
	// with the exact deterministic answer. Level-2 checkpointing is
	// enabled so even two losses inside one XOR group (possible under
	// random timing) stay recoverable.
	for _, seed := range []int64{1, 2, 3} {
		var results sync.Map
		cfg := fastCfg(8, 2, 6, 2)
		cfg.Timeout = 120 * time.Second
		cfg.MaxEpochs = 64
		cfg.Level2Every = 2
		cfg.Faults = &FaultPlan{MTBF: 250 * time.Millisecond, MaxFailures: 4, Seed: seed}
		app := func(env *Env) error {
			state := make([]byte, 16)
			world := env.World()
			for {
				n := env.Loop(state)
				if n >= 20 {
					break
				}
				sum, err := AllreduceInt64(world, SumInt64(), int64(n+env.Rank()))
				if err != nil {
					continue
				}
				time.Sleep(3 * time.Millisecond)
				acc := int64(binary.LittleEndian.Uint64(state[8:])) + sum[0]
				binary.LittleEndian.PutUint64(state[8:], uint64(acc))
				binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
			}
			results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
			return env.Finalize()
		}
		rep, err := Run(cfg, app)
		if errors.Is(err, ErrUnrecoverable) {
			// Legitimate clean abort: under heavy load (race detector)
			// failures can destroy an XOR group before the first level-2
			// flush completes. The soak's claim is exactness whenever the
			// job survives, and a clean error — not a hang — when not.
			t.Logf("seed %d: aborted cleanly before level 2 existed: %v", seed, err)
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v (injected %d)", seed, err, rep.FailuresInjected)
		}
		want := expectedIterSum(8, 20)
		results.Range(func(k, v any) bool {
			if v.(int64) != want {
				t.Errorf("seed %d rank %v: %d, want %d", seed, k, v, want)
			}
			return true
		})
	}
}

func TestTraceTimeline(t *testing.T) {
	var results sync.Map
	var buf syncBuffer
	cfg := fastCfg(4, 1, 1, 2)
	cfg.TraceTo = &buf
	cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: 1}}}
	rep, err := Run(cfg, iterApp(8, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	kinds := map[string]int{}
	for _, e := range rep.Timeline {
		kinds[string(e.Kind)]++
	}
	for _, want := range []string{"node-failed", "epoch", "spare-allocated", "respawn", "notified", "checkpoint", "rollback", "finalize"} {
		if kinds[want] == 0 {
			t.Fatalf("timeline missing %q events (have %v)", want, kinds)
		}
	}
	// The failure event must precede the first rollback.
	sawFail := false
	for _, e := range rep.Timeline {
		if string(e.Kind) == "node-failed" {
			sawFail = true
		}
		if string(e.Kind) == "rollback" && !sawFail {
			t.Fatal("rollback recorded before the failure")
		}
	}
	if buf.String() == "" {
		t.Fatal("TraceTo received nothing")
	}
}

// syncBuffer is a goroutine-safe bytes buffer for trace output.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}
