package fmi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// Mid-collective failure tests (ISSUE 3 satellite): kill a rank while
// each schedule family is in flight and require the job to recover
// through Loop with the exact deterministic answer, on both transports
// and under both recovery modes. The scripted fault lands after the
// victim passes loop 4, i.e. somewhere inside iteration 4's body —
// which is nothing but back-to-back collectives — so survivors observe
// the death mid-schedule (a peer's step never arrives) and must abort
// cleanly to Loop rather than hang or deliver torn data.

// collFamily pins one schedule generator family via the Collectives
// config and checks its results are exact after recovery.
type collFamily struct {
	name  string
	pin   func(*Config)
	app   func(iters int, results *sync.Map) App
	final func(ranks, iters int) int64
}

// ringAllreduceFamily: forced ring (the small test payload would
// auto-select recursive doubling). The int64 vector is ranks elements
// long so the ring's byte chunks align with int64 lanes.
func ringAllreduceApp(iters int, results *sync.Map) App {
	return func(env *Env) error {
		world := env.World()
		ranks := env.Size()
		state := make([]byte, 16)
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			in := make([]int64, ranks)
			for i := range in {
				in[i] = int64(n + env.Rank() + i)
			}
			sum, err := AllreduceInt64(world, SumInt64(), in...)
			if err != nil {
				continue // failure detected: back to Loop to recover
			}
			acc := int64(binary.LittleEndian.Uint64(state[8:])) + sum[0] + sum[ranks-1]
			binary.LittleEndian.PutUint64(state[8:], uint64(acc))
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
		return env.Finalize()
	}
}

func ringAllreduceFinal(ranks, iters int) int64 {
	var total int64
	for n := 0; n < iters; n++ {
		for _, i := range []int{0, ranks - 1} {
			for r := 0; r < ranks; r++ {
				total += int64(n + r + i)
			}
		}
	}
	return total
}

// bruckAlltoallApp verifies every received part inline — after a
// recovery the re-executed exchange must still deliver each (src, dst)
// pair exactly — and folds one byte per iteration into the checksum.
func bruckAlltoallApp(iters int, results *sync.Map) App {
	return func(env *Env) error {
		world := env.World()
		ranks := env.Size()
		state := make([]byte, 16)
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			parts := make([][]byte, ranks)
			for d := range parts {
				parts[d] = []byte{byte(env.Rank()), byte(d), byte(n)}
			}
			out, err := world.Alltoall(parts)
			if err != nil {
				continue
			}
			for src, got := range out {
				if len(got) != 3 || got[0] != byte(src) || got[1] != byte(env.Rank()) || got[2] != byte(n) {
					return fmt.Errorf("rank %d iter %d: part from %d = %v", env.Rank(), n, src, got)
				}
			}
			acc := int64(binary.LittleEndian.Uint64(state[8:])) + int64(out[n%ranks][2])
			binary.LittleEndian.PutUint64(state[8:], uint64(acc))
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
		return env.Finalize()
	}
}

func bruckAlltoallFinal(_, iters int) int64 {
	var total int64
	for n := 0; n < iters; n++ {
		total += int64(byte(n))
	}
	return total
}

// binomialBcastApp rotates the root each iteration so the kill hits
// the tree in different positions across re-executions.
func binomialBcastApp(iters int, results *sync.Map) App {
	return func(env *Env) error {
		world := env.World()
		ranks := env.Size()
		state := make([]byte, 16)
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			root := n % ranks
			var payload []byte
			if env.Rank() == root {
				payload = []byte{byte(n + 7), byte(root)}
			}
			got, err := world.Bcast(root, payload)
			if err != nil {
				continue
			}
			if len(got) != 2 || got[0] != byte(n+7) || got[1] != byte(root) {
				return fmt.Errorf("rank %d iter %d: bcast from %d = %v", env.Rank(), n, root, got)
			}
			acc := int64(binary.LittleEndian.Uint64(state[8:])) + int64(got[0])
			binary.LittleEndian.PutUint64(state[8:], uint64(acc))
			binary.LittleEndian.PutUint64(state[0:], uint64(n+1))
		}
		results.Store(env.Rank(), int64(binary.LittleEndian.Uint64(state[8:])))
		return env.Finalize()
	}
}

func binomialBcastFinal(_, iters int) int64 {
	var total int64
	for n := 0; n < iters; n++ {
		total += int64(byte(n + 7))
	}
	return total
}

func TestMidCollectiveFailureRecovery(t *testing.T) {
	const (
		ranks  = 6
		iters  = 8
		victim = 2
	)
	families := []collFamily{
		{
			name:  "ring-allreduce",
			pin:   func(c *Config) { c.Collectives.Allreduce = "ring" },
			app:   ringAllreduceApp,
			final: ringAllreduceFinal,
		},
		{
			name:  "bruck-alltoall",
			pin:   func(c *Config) { c.Collectives.Alltoall = "bruck" },
			app:   bruckAlltoallApp,
			final: bruckAlltoallFinal,
		},
		{
			name:  "binomial-bcast",
			pin:   func(c *Config) { c.Collectives.Bcast = "binomial" },
			app:   binomialBcastApp,
			final: binomialBcastFinal,
		},
	}
	transports := []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	}
	for _, fam := range families {
		for _, tp := range transports {
			for _, recovery := range []string{"global", "local", "replica"} {
				t.Run(fmt.Sprintf("%s/%s/%s", fam.name, tp.name, recovery), func(t *testing.T) {
					var results sync.Map
					cfg := fastCfg(ranks, 1, 1, 2)
					cfg.Transport = tp.kind
					cfg.Recovery = recovery
					fam.pin(&cfg)
					cfg.Faults = &FaultPlan{Script: []Fault{{AfterLoop: 4, Node: -1, Rank: victim}}}
					rep, err := Run(cfg, fam.app(iters, &results))
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if recovery == "replica" {
						// A primary kill is masked by shadow promotion:
						// the job completes with zero recovery epochs.
						if rep.FailuresInjected == 0 {
							t.Fatal("the fault never fired")
						}
						if rep.Recoveries != 0 {
							t.Fatalf("Recoveries = %d, want 0 (promotion must mask the kill)", rep.Recoveries)
						}
					} else if rep.Recoveries == 0 {
						t.Fatal("no recovery recorded: the fault never fired")
					}
					if recovery == "local" {
						checkNoHeld(t, rep)
					}
					want := fam.final(ranks, iters)
					count := 0
					results.Range(func(k, v any) bool {
						count++
						if v.(int64) != want {
							t.Errorf("rank %v: %d, want %d", k, v, want)
						}
						return true
					})
					if count != ranks {
						t.Fatalf("results = %d, want %d", count, ranks)
					}
				})
			}
		}
	}
}

// TestMidCollectiveReplicaKillMatrix pins the replica protocol's three
// mid-collective failure scopes on both transports: a primary kill and
// a shadow kill are masked (zero recovery epochs), while killing a
// rank's primary AND shadow in one correlated event is unmaskable —
// the job degrades to rollback recovery and still finishes exact.
func TestMidCollectiveReplicaKillMatrix(t *testing.T) {
	const (
		ranks  = 6
		iters  = 8
		victim = 2
	)
	kills := []struct {
		name   string
		fault  Fault
		masked bool
	}{
		{"kill-primary", Fault{AfterLoop: 4, Node: -1, Rank: victim}, true},
		{"kill-shadow", Fault{AfterLoop: 4, Node: -1, Rank: victim, Shadow: true}, true},
		{"kill-pair", Fault{AfterLoop: 4, Node: -1, Rank: victim, Pair: true}, false},
	}
	transports := []struct {
		name string
		kind TransportKind
	}{
		{"chan", ChanTransport},
		{"tcp", TCPTransport},
	}
	for _, tp := range transports {
		for _, kill := range kills {
			t.Run(fmt.Sprintf("%s/%s", tp.name, kill.name), func(t *testing.T) {
				var results sync.Map
				cfg := fastCfg(ranks, 1, 2, 2)
				cfg.Transport = tp.kind
				cfg.Recovery = "replica"
				cfg.Collectives.Allreduce = "ring"
				cfg.Faults = &FaultPlan{Script: []Fault{kill.fault}}
				rep, err := Run(cfg, ringAllreduceApp(iters, &results))
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if rep.FailuresInjected == 0 {
					t.Fatal("the fault never fired")
				}
				if kill.masked && rep.Recoveries != 0 {
					t.Fatalf("Recoveries = %d, want 0 (%s must be masked)", rep.Recoveries, kill.name)
				}
				if !kill.masked && rep.Recoveries == 0 {
					t.Fatal("pair loss completed without any recovery epoch: the degrade path never ran")
				}
				want := ringAllreduceFinal(ranks, iters)
				count := 0
				results.Range(func(k, v any) bool {
					count++
					if v.(int64) != want {
						t.Errorf("rank %v: %d, want %d", k, v, want)
					}
					return true
				})
				if count != ranks {
					t.Fatalf("results = %d, want %d", count, ranks)
				}
			})
		}
	}
}
