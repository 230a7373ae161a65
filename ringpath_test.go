package fmi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// Single-link acceptance tests: every pair, co-located or not, on chan
// or TCP, delivers through a per-source ring into the matcher, so (1)
// where the ranks are placed and which wire carries their frames must
// not change a single byte of any rank's final state, with or without
// an injected failure, and (2) a rank killed mid-collective while its
// peers are exchanging over rings must recover exactly.

// TestTransportModesByteIdentical runs the pooling parity workload —
// p2p sendrecv, packed collectives, checkpoints — over ProcsPerNode
// {1, 2} x {chan, tcp} and requires byte-identical per-rank state. The
// fault=true arm additionally kills a rank mid-run (with its node, so
// its neighbour too at two per node), so recovery and ring
// teardown/rebuild are covered by the same identity.
func TestTransportModesByteIdentical(t *testing.T) {
	for _, fault := range []bool{false, true} {
		fault := fault
		t.Run(fmt.Sprintf("fault=%v", fault), func(t *testing.T) {
			var want map[int][]byte
			for _, ppn := range []int{1, 2} {
				for tr, trName := range map[TransportKind]string{ChanTransport: "chan", TCPTransport: "tcp"} {
					name := fmt.Sprintf("ppn%d/%s", ppn, trName)
					cfg := fastCfg(8, ppn, 1, 2)
					cfg.Transport = tr
					if fault {
						cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 3, Node: -1, Rank: 5}}}
					}
					var results sync.Map
					if _, err := Run(cfg, poolParityApp(7, &results)); err != nil {
						t.Fatalf("%s: Run: %v", name, err)
					}
					got := map[int][]byte{}
					results.Range(func(k, v any) bool {
						got[k.(int)] = v.([]byte)
						return true
					})
					if len(got) != 8 {
						t.Fatalf("%s: %d results, want 8", name, len(got))
					}
					if want == nil {
						want = got
						continue
					}
					for r, w := range want {
						if !bytes.Equal(got[r], w) {
							t.Errorf("%s: rank %d state %x, want %x", name, r, got[r], w)
						}
					}
				}
			}
		})
	}
}

// TestMidCollectiveKillOnRingPath kills a rank while a forced-ring
// allreduce is in flight, under both recovery modes: a recovery must
// happen and every rank must converge to the exact answer. The debug
// arena turns a buffer released twice (say, a ring slot freed by both
// the victim's poison-drain and its consumer) into a panic that fails
// the test. It is no leak check: Run never audits the arena's
// outstanding buffers, so a slot that is never released goes unseen.
func TestMidCollectiveKillOnRingPath(t *testing.T) {
	const ranks, iters = 8, 9
	for _, recovery := range []string{"global", "local"} {
		recovery := recovery
		t.Run(recovery, func(t *testing.T) {
			cfg := fastCfg(ranks, 2, 1, 2)
			cfg.Recovery = recovery
			cfg.Pooling = PoolingDebug
			cfg.Collectives.Allreduce = "ring" // pin the ring schedule: long-lived pairwise traffic
			cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: 3}}}
			var results sync.Map
			rep, err := Run(cfg, ringAllreduceApp(iters, &results))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Recoveries == 0 {
				t.Fatal("no recovery happened")
			}
			want := ringAllreduceFinal(ranks, iters)
			n := 0
			results.Range(func(k, v any) bool {
				n++
				if v.(int64) != want {
					t.Errorf("rank %v: %d, want %d", k, v, want)
				}
				return true
			})
			if n != ranks {
				t.Fatalf("%d results, want %d", n, ranks)
			}
		})
	}
}
