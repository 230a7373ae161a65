package fmi

import (
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"fmi/internal/trace"
)

// relayApp evolves a 4 KiB checkpointed state per rank from a world
// Allreduce each iteration, so every chunk of every parity chain is
// live data; results records an FNV hash of each rank's final state.
func relayApp(iters int, results *sync.Map) App {
	return func(env *Env) error {
		state := make([]byte, 4096)
		world := env.World()
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			sum, err := AllreduceInt64(world, SumInt64(), int64(n*31+env.Rank()))
			if err != nil {
				continue
			}
			for i := range state {
				state[i] = state[i]*7 + byte(sum[0]) + byte(i) + byte(env.Rank())
			}
		}
		h := fnv.New64a()
		h.Write(state)
		results.Store(env.Rank(), h.Sum64())
		return env.Finalize()
	}
}

// TestRebuildOnRelayParity: the replacement of a rebuilt XOR group
// member keeps the relay chain its rebuild ended with as its parity,
// with no re-encode. A second member of the same group dies before the
// next checkpoint, so the second rebuild decodes with that parity. On
// chan and TCP, under global and local recovery, the job must end with
// the failure-free run's state byte for byte, every group member must
// log each rebuild, and no checkpoint may commit between the two
// kills (local recovery's replacement re-executes the checkpoint it
// restored; that one re-derives the same parity from the replayed
// ring and is the only checkpoint allowed there).
func TestRebuildOnRelayParity(t *testing.T) {
	const (
		ranks    = 4
		iters    = 20
		interval = 8 // checkpoints at 0, 8, 16: both kills fall between 8 and 16
	)
	for _, tr := range []struct {
		name string
		kind TransportKind
	}{{"chan", ChanTransport}, {"tcp", TCPTransport}} {
		for _, mode := range []string{"global", "local"} {
			t.Run(tr.name+"/"+mode, func(t *testing.T) {
				cfg := fastCfg(ranks, 1, 2, interval)
				cfg.Transport = tr.kind
				cfg.Recovery = mode
				var want sync.Map
				if _, err := Run(cfg, relayApp(iters, &want)); err != nil {
					t.Fatalf("failure-free run: %v", err)
				}

				cfg.TraceTo = io.Discard // populate Report.Timeline
				cfg.Faults = &FaultPlan{Script: []Fault{
					{AfterLoop: 9, Node: -1, Rank: 1},
					{AfterLoop: 13, Node: -1, Rank: 2},
				}}
				var got sync.Map
				rep, err := Run(cfg, relayApp(iters, &got))
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if rep.FailuresInjected != 2 || rep.Recoveries != 2 {
					t.Fatalf("%d failures injected, %d recoveries; want 2 and 2", rep.FailuresInjected, rep.Recoveries)
				}
				for r := 0; r < ranks; r++ {
					w, _ := want.Load(r)
					g, _ := got.Load(r)
					if w == nil || g != w {
						t.Errorf("rank %d: state hash %v, failure-free run %v", r, g, w)
					}
				}
				checkRelayTimeline(t, rep.Timeline, ranks, mode == "local")
			})
		}
	}
}

func checkRelayTimeline(t *testing.T, evs []TraceEvent, ranks int, local bool) {
	t.Helper()
	var kills []time.Time
	for _, e := range evs {
		if e.Kind == trace.KindNodeFailed {
			kills = append(kills, e.At)
		}
	}
	if len(kills) != 2 {
		t.Fatalf("%d node-failed events, want 2", len(kills))
	}
	const restored = "checkpoint 8 " // the restore point of both kills
	rebuilds := 0
	roles := map[string]int{}
	for _, e := range evs {
		switch e.Kind {
		case trace.KindCheckpoint:
			if !e.At.After(kills[0]) || !e.At.Before(kills[1]) {
				continue
			}
			if !local || !strings.HasPrefix(e.Note, restored) {
				t.Errorf("rank %d committed %q between the two kills", e.Rank, e.Note)
			}
		case trace.KindShardRebuild:
			rebuilds++
			for _, role := range []string{"as survivor", "as replacement"} {
				if strings.Contains(e.Note, role) {
					roles[role]++
				}
			}
		}
	}
	// Every member logs each of the two rebuilds: 3 survivors and the
	// replacement of a group of 4.
	if rebuilds != 2*ranks || roles["as survivor"] != 2*(ranks-1) || roles["as replacement"] != 2 {
		t.Errorf("%d shard-rebuild events (%v), want %d: one per member per rebuild", rebuilds, roles, 2*ranks)
	}
}
