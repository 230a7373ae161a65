package fmi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// poolParityApp runs a mixed workload over every hot path the arena
// touches — p2p sendrecv, collectives (packed multi-block steps
// included), and checkpointing — and records each rank's final state
// bytes so modes can be compared byte for byte.
func poolParityApp(iters int, results *sync.Map) App {
	return func(env *Env) error {
		state := make([]byte, 64)
		world := env.World()
		n := env.Size()
		for {
			id := env.Loop(state)
			if id >= iters {
				break
			}
			// p2p ring exchange.
			right := (env.Rank() + 1) % n
			left := (env.Rank() - 1 + n) % n
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, uint64(id*131+env.Rank()))
			got, err := world.Sendrecv(right, 7, out, left, 7)
			if err != nil {
				continue
			}
			// Collectives: allreduce + allgather (ring algo packs slices).
			sum, err := AllreduceInt64(world, SumInt64(), int64(id+env.Rank()))
			if err != nil {
				continue
			}
			parts, err := world.Allgather(got)
			if err != nil {
				continue
			}
			h := uint64(0)
			for _, p := range parts {
				h = h*1099511628211 + binary.LittleEndian.Uint64(p)
			}
			acc := binary.LittleEndian.Uint64(state[0:]) + uint64(sum[0]) + h
			binary.LittleEndian.PutUint64(state[0:], acc)
			binary.LittleEndian.PutUint64(state[8:], uint64(id+1))
		}
		results.Store(env.Rank(), append([]byte(nil), state...))
		return env.Finalize()
	}
}

// TestPoolingModesByteIdentical proves the acceptance property that
// pooling only changes where buffers come from: the same job produces
// byte-identical per-rank final state with the arena on, off, and in
// debug (leak-checking) mode, with and without an injected failure.
func TestPoolingModesByteIdentical(t *testing.T) {
	for _, fault := range []bool{false, true} {
		fault := fault
		t.Run(fmt.Sprintf("fault=%v", fault), func(t *testing.T) {
			var want map[int][]byte
			for _, mode := range []PoolingMode{PoolingOn, PoolingOff, PoolingDebug} {
				cfg := fastCfg(8, 2, 1, 2)
				cfg.Pooling = mode
				if fault {
					cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 3, Node: -1, Rank: 5}}}
				}
				var results sync.Map
				if _, err := Run(cfg, poolParityApp(7, &results)); err != nil {
					t.Fatalf("mode %d: Run: %v", mode, err)
				}
				got := map[int][]byte{}
				results.Range(func(k, v any) bool {
					got[k.(int)] = v.([]byte)
					return true
				})
				if len(got) != 8 {
					t.Fatalf("mode %d: %d results, want 8", mode, len(got))
				}
				if want == nil {
					want = got
					continue
				}
				for r, w := range want {
					if !bytes.Equal(got[r], w) {
						t.Errorf("mode %d: rank %d state %x, want %x", mode, r, got[r], w)
					}
				}
			}
		})
	}
}

// TestPoolingLocalRecovery exercises the arena under the sender-based
// logging protocol (replay, ride-through, re-executed checkpoint
// exchange) — the paths with the trickiest buffer ownership.
func TestPoolingLocalRecovery(t *testing.T) {
	for _, mode := range []PoolingMode{PoolingOn, PoolingDebug} {
		cfg := fastCfg(8, 2, 1, 2)
		cfg.Recovery = "local"
		cfg.Pooling = mode
		cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: 3}}}
		var results sync.Map
		rep, err := Run(cfg, iterApp(10, &results))
		if err != nil {
			t.Fatalf("mode %d: Run: %v", mode, err)
		}
		if rep.Recoveries == 0 {
			t.Fatalf("mode %d: no recovery happened", mode)
		}
		want := expectedIterSum(8, 10)
		results.Range(func(k, v any) bool {
			if v.(int64) != want {
				t.Errorf("mode %d: rank %v: %d, want %d", mode, k, v, want)
			}
			return true
		})
	}
}

// TestPoolingDebugRS runs Reed-Solomon group redundancy under the
// debug arena: the pipelined MulAddRowInto encode and RecoverInto
// reconstruction must balance every chunk they consume.
func TestPoolingDebugRS(t *testing.T) {
	cfg := Config{
		Ranks: 8, ProcsPerNode: 1, SpareNodes: 2,
		CheckpointInterval: 2, XORGroupSize: 4, Redundancy: 2,
		DetectDelay: 2 * time.Millisecond, PropDelay: time.Millisecond,
		Timeout: 60 * time.Second,
		Pooling: PoolingDebug,
		Faults: &FaultPlan{Script: []Fault{
			{AfterLoop: 3, Node: -1, Rank: 1, CorrelatedRanks: []int{5}},
		}},
	}
	var results sync.Map
	rep, err := Run(cfg, iterApp(8, &results))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Recoveries == 0 {
		t.Fatal("no recovery happened")
	}
	want := expectedIterSum(8, 8)
	results.Range(func(k, v any) bool {
		if v.(int64) != want {
			t.Errorf("rank %v: %d, want %d", k, v, want)
		}
		return true
	})
}

// TestKeptPayloadsUnderLocalReplay runs the p2p-and-collectives
// workload under local recovery with a kill, so the respawned rank's
// re-execution receives replayed user messages from the senders' logs,
// on both transports and the debug arena. User payloads travel kept
// (outside the arena) while everything else is pooled: Run's arena
// audit must come back clean, and the final state must equal a
// failure-free run's byte for byte.
func TestKeptPayloadsUnderLocalReplay(t *testing.T) {
	const ranks, iters = 8, 7
	for _, tp := range []TransportKind{ChanTransport, TCPTransport} {
		var want map[int][]byte
		for _, fault := range []bool{false, true} {
			cfg := fastCfg(ranks, 2, 1, 2)
			cfg.Transport = tp
			cfg.Recovery = "local"
			cfg.Pooling = PoolingDebug
			if fault {
				cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 3, Node: -1, Rank: 5}}}
			}
			var results sync.Map
			rep, err := Run(cfg, poolParityApp(iters, &results))
			if err != nil {
				t.Fatalf("transport %d fault=%v: Run: %v", tp, fault, err)
			}
			got := map[int][]byte{}
			results.Range(func(k, v any) bool {
				got[k.(int)] = v.([]byte)
				return true
			})
			if len(got) != ranks {
				t.Fatalf("transport %d fault=%v: %d results, want %d", tp, fault, len(got), ranks)
			}
			if !fault {
				want = got
				continue
			}
			if rep.Recoveries == 0 || rep.Stats.ReplayedMsgs == 0 {
				t.Fatalf("transport %d: %d recoveries, %d replayed messages; want both > 0",
					tp, rep.Recoveries, rep.Stats.ReplayedMsgs)
			}
			for r, w := range want {
				if !bytes.Equal(got[r], w) {
					t.Errorf("transport %d: rank %d state %x, want %x", tp, r, got[r], w)
				}
			}
		}
	}
}

// TestUserPayloadOneCopy pins the one-copy rule for user messages on
// the in-process transport: a Send plus its Recv allocates one buffer
// of exactly the payload's size (no arena size class, no second copy),
// and the application receives it with len == cap. The count is
// process-wide, so the test keeps the least of a few batches: work
// still winding down from an earlier test allocates beside the first.
// Under -race only the len == cap half is checked.
func TestUserPayloadOneCopy(t *testing.T) {
	const batch, batches = 64, 3
	for _, size := range []int{64 << 10, 48 << 10} {
		perMsg := uint64(math.MaxUint64)
		var badCap error
		cfg := fastCfg(2, 1, 0, 1000)
		_, err := Run(cfg, func(env *Env) error {
			world := env.World()
			if env.Rank() == 0 {
				payload := make([]byte, size)
				for b := 0; b < batches; b++ {
					if _, _, err := world.Recv(1, 1); err != nil {
						return err
					}
					for i := 0; i < batch; i++ {
						if err := world.Send(1, 2, payload); err != nil {
							return err
						}
					}
				}
				return env.Finalize()
			}
			var ms runtime.MemStats
			for b := 0; b < batches; b++ {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				if err := world.Send(0, 1, []byte{1}); err != nil {
					return err
				}
				for i := 0; i < batch; i++ {
					got, _, err := world.Recv(0, 2)
					if err != nil {
						return err
					}
					if len(got) != size || cap(got) != size {
						badCap = fmt.Errorf("message %d: len %d cap %d, want %d", i, len(got), cap(got), size)
					}
				}
				runtime.ReadMemStats(&ms)
				perMsg = min(perMsg, (ms.TotalAlloc-before)/batch)
			}
			return env.Finalize()
		})
		if err != nil {
			t.Fatalf("%d B: Run: %v", size, err)
		}
		if badCap != nil {
			t.Fatalf("%d B: %v", size, badCap)
		}
		// One payload-sized buffer per message, plus a little for the
		// receive machinery: well below a second copy or the next class.
		// The race detector's own allocations blur the count.
		if raceEnabled {
			continue
		}
		if perMsg < uint64(size) || perMsg > uint64(size)+1024 {
			t.Fatalf("%d B messages: %d B allocated per Send+Recv, want one %d B buffer", size, perMsg, size)
		}
		t.Logf("%d B messages: %d B allocated per Send+Recv", size, perMsg)
	}
}
