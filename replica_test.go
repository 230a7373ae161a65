package fmi

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmi/internal/trace"
)

// Replica-recovery acceptance tests (ISSUE 7 tentpole): a primary-node
// kill mid-run must complete with ZERO survivor rollback — no restore,
// no replay, no epoch bump — and exactly one shadow promotion.

// countKinds tallies the timeline events by kind.
func countKinds(evs []TraceEvent) map[trace.Kind]int {
	m := make(map[trace.Kind]int)
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

func TestReplicaPrimaryKillNoRollback(t *testing.T) {
	const (
		ranks  = 8
		iters  = 8
		victim = 2
	)
	var results sync.Map
	cfg := fastCfg(ranks, 1, 1, 2)
	cfg.Recovery = "replica"
	cfg.TraceTo = io.Discard // populate Report.Timeline
	cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: victim}}}
	rep, err := Run(cfg, iterApp(iters, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.FailuresInjected == 0 {
		t.Fatal("the fault never fired")
	}
	// The whole point: promotion masks the failure. No recovery epoch,
	// no rollback, no replay anywhere in the job.
	if rep.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (promotion must not roll back)", rep.Recoveries)
	}
	kinds := countKinds(rep.Timeline)
	for _, k := range []trace.Kind{trace.KindRestore, trace.KindRollback, trace.KindReplayStart, trace.KindReplayDone, trace.KindEpoch, trace.KindRespawn} {
		if n := kinds[k]; n != 0 {
			t.Errorf("%d %q events recorded, want 0", n, k)
		}
	}
	if n := kinds[trace.KindShadowPromote]; n != 1 {
		t.Errorf("%d shadow-promote events, want exactly 1", n)
	}
	if n := rep.Stats.LostIterations; n != 0 {
		t.Errorf("%d iterations lost, want 0", n)
	}
	want := expectedIterSum(ranks, iters)
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
	if count != ranks {
		t.Fatalf("results = %d ranks, want %d", count, ranks)
	}

	// The failure's whole cost is the promotion handoff: the
	// node-failed -> shadow-promote span is shorter than the recovery
	// epoch that global rollback runs for the same kill.
	// The shadow ran on a node of its own: the pair doubles the
	// footprint rather than sharing a node.
	var failedAt, promotedAt time.Time
	failedNode, shadowNode := -1, -1
	for _, e := range rep.Timeline {
		switch {
		case e.Kind == trace.KindNodeFailed && failedAt.IsZero():
			failedAt = e.At
			fmt.Sscanf(e.Note, "node %d failed", &failedNode)
		case e.Kind == trace.KindShadowPromote && promotedAt.IsZero():
			promotedAt = e.At
			fmt.Sscanf(e.Note, "shadow on node %d promoted", &shadowNode)
		}
	}
	if failedAt.IsZero() || promotedAt.Before(failedAt) {
		t.Fatalf("no node-failed -> shadow-promote span in the timeline (%v, %v)", failedAt, promotedAt)
	}
	if failedNode < 0 || shadowNode < 0 || failedNode == shadowNode {
		t.Errorf("primary on node %d, promoted shadow on node %d: want two distinct nodes", failedNode, shadowNode)
	}
	gcfg := cfg
	gcfg.Recovery = "global"
	grep, err := Run(gcfg, iterApp(iters, &sync.Map{}))
	if err != nil {
		t.Fatalf("global Run: %v", err)
	}
	if grep.Recoveries == 0 {
		t.Fatal("global rollback ran no recovery epoch for the same kill")
	}
	promote, rollback := promotedAt.Sub(failedAt), grep.Stats.RecoveryTime/time.Duration(grep.Recoveries)
	if promote >= rollback {
		t.Errorf("promotion took %v, not below global rollback's recovery epoch of %v", promote, rollback)
	}
}

// TestReplicaShadowKillMasked: losing a shadow is invisible to the
// application; a replacement is provisioned in the background.
func TestReplicaShadowKillMasked(t *testing.T) {
	const (
		ranks  = 6
		iters  = 8
		victim = 3
	)
	var results sync.Map
	cfg := fastCfg(ranks, 1, 1, 2)
	cfg.Recovery = "replica"
	cfg.TraceTo = io.Discard
	cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 3, Node: -1, Rank: victim, Shadow: true}}}
	rep, err := Run(cfg, iterApp(iters, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.FailuresInjected == 0 {
		t.Fatal("the fault never fired")
	}
	if rep.Recoveries != 0 {
		t.Fatalf("Recoveries = %d, want 0 (shadow loss must be masked)", rep.Recoveries)
	}
	kinds := countKinds(rep.Timeline)
	if kinds[trace.KindShadowPromote] != 0 {
		t.Errorf("shadow-promote recorded on a shadow-only kill")
	}
	if kinds[trace.KindShadowReprovision] == 0 {
		t.Errorf("no shadow-reprovision event after a shadow loss")
	}
	want := expectedIterSum(ranks, iters)
	count := 0
	results.Range(func(k, v any) bool {
		count++
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
	if count != ranks {
		t.Fatalf("results = %d ranks, want %d", count, ranks)
	}
}

// TestRecoveryValidation pins the Config.Recovery contract: all three
// protocols are accepted and the rejection message enumerates them
// (ISSUE 7 satellite).
func TestRecoveryValidation(t *testing.T) {
	valid := []string{"", "global", "local", "replica"}
	for _, r := range valid {
		t.Run(fmt.Sprintf("valid/%q", r), func(t *testing.T) {
			var results sync.Map
			cfg := fastCfg(2, 1, 0, 2)
			cfg.Recovery = r
			if _, err := Run(cfg, iterApp(2, &results)); err != nil {
				t.Fatalf("Recovery %q rejected: %v", r, err)
			}
		})
	}
	invalid := []string{"Global", "GLOBAL", "rollback", "shadow", "replicas", "none", " "}
	for _, r := range invalid {
		t.Run(fmt.Sprintf("invalid/%q", r), func(t *testing.T) {
			cfg := fastCfg(2, 1, 0, 2)
			cfg.Recovery = r
			_, err := Run(cfg, func(env *Env) error { return env.Finalize() })
			if err == nil {
				t.Fatalf("Recovery %q accepted, want error", r)
			}
			for _, proto := range []string{`"global"`, `"local"`, `"replica"`} {
				if !strings.Contains(err.Error(), proto) {
					t.Errorf("error %q does not mention %s", err, proto)
				}
			}
		})
	}
	t.Run("replica-needs-interval", func(t *testing.T) {
		cfg := fastCfg(2, 1, 0, 0)
		cfg.Recovery = "replica"
		cfg.MTBF = 1e9
		if _, err := Run(cfg, func(env *Env) error { return env.Finalize() }); err == nil {
			t.Fatal("replica with auto-tuned interval accepted, want error")
		}
	})
	t.Run("replica-needs-ppn1", func(t *testing.T) {
		cfg := fastCfg(4, 2, 0, 2)
		cfg.Recovery = "replica"
		if _, err := Run(cfg, func(env *Env) error { return env.Finalize() }); err == nil {
			t.Fatal("replica with ProcsPerNode 2 accepted, want error")
		}
	})
}

// TestEnvStore exercises the ReStore-style replicated store through
// the public API: an object submitted by one rank is loadable by all,
// and survives the failure of a holder node.
func TestEnvStore(t *testing.T) {
	const ranks = 4
	var loaded sync.Map
	cfg := fastCfg(ranks, 1, 1, 2)
	cfg.Recovery = "replica"
	rep, err := Run(cfg, func(env *Env) error {
		state := make([]byte, 8)
		for {
			n := env.Loop(state)
			if n >= 4 {
				break
			}
			if n == 1 && env.Rank() == 0 {
				if err := env.Store().Submit("model", []byte("weights-v1")); err != nil {
					return err
				}
			}
			if err := env.World().Barrier(); err != nil {
				continue
			}
			if n == 2 {
				data, err := env.Store().Load("model")
				if err != nil {
					return fmt.Errorf("rank %d: Load: %w", env.Rank(), err)
				}
				loaded.Store(env.Rank(), string(data))
			}
			state[0] = byte(n + 1)
		}
		return env.Finalize()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	_ = rep
	count := 0
	loaded.Range(func(k, v any) bool {
		count++
		if v.(string) != "weights-v1" {
			t.Errorf("rank %v loaded %q", k, v)
		}
		return true
	})
	if count != ranks {
		t.Fatalf("loads = %d, want %d", count, ranks)
	}
}

// TestReplicaCopyErrorFailsJob: when one copy of rank 1 returns an
// application error the job fails with it, promptly (under a 60 s
// Timeout, within 5 s), whichever copy errs. Each run picks the first
// or the second copy of rank 1 to reach loop 5 to return the error;
// which of them is the shadow is up to the scheduler, so the two
// choices cover both roles. A shadow's error used to be dropped while
// it stayed registered, and a primary's left its shadow orphaned; in
// both cases the other copy then waited for its partner until the job
// timed out.
func TestReplicaCopyErrorFailsJob(t *testing.T) {
	const ranks, iters, at = 4, 12, 5
	for run := 0; run < 6; run++ {
		failing := int32(1 + run%2) // which copy to reach loop at fails
		var reached atomic.Int32
		var results sync.Map
		cfg := fastCfg(ranks, 1, 1, 2)
		cfg.Recovery = "replica"
		inner := iterApp(iters, &results)
		app := func(env *Env) error {
			if env.Rank() != 1 {
				return inner(env)
			}
			state := make([]byte, 16)
			for {
				n := env.Loop(state)
				if n >= iters {
					break
				}
				if n == at && reached.Add(1) == failing {
					return fmt.Errorf("copy %d failed at loop %d", failing, n)
				}
				if _, err := AllreduceInt64(env.World(), SumInt64(), int64(n)); err != nil {
					continue
				}
			}
			return env.Finalize()
		}
		start := time.Now()
		_, err := Run(cfg, app)
		if err == nil {
			t.Fatalf("run %d: Run returned no error", run)
		}
		if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "failed at loop") {
			t.Fatalf("run %d: error does not name rank 1's failure: %v", run, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("run %d: Run took %v to fail", run, d)
		}
	}
}
