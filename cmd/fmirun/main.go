// fmirun launches a built-in FMI application on the simulated cluster,
// mirroring the paper's fmirun process manager (Fig 6). It is the
// quickest way to watch the runtime survive failures:
//
//	fmirun -app himeno -ranks 8 -mtbf 2s -failures 3
//
// Applications: counter (a checkpointed counter with an Allreduce per
// iteration), himeno (the paper's Poisson solver), pi (Monte-Carlo π).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"fmi"
	"fmi/internal/himeno"
)

func main() {
	var (
		app      = flag.String("app", "counter", "application: counter | himeno | pi")
		ranks    = flag.Int("ranks", 8, "number of FMI ranks")
		ppn      = flag.Int("ppn", 2, "ranks per node")
		spares   = flag.Int("spares", 4, "spare nodes reserved for fault tolerance")
		iters    = flag.Int("iters", 40, "loop iterations")
		interval = flag.Int("interval", 0, "checkpoint interval (0 = Vaidya auto-tune from -mtbf)")
		mtbf     = flag.Duration("mtbf", 2*time.Second, "assumed MTBF (tuning + Poisson injection)")
		failures = flag.Int("failures", 2, "number of Poisson failures to inject (0 disables)")
		seed     = flag.Int64("seed", 1, "failure injection seed")
		grid     = flag.Int("grid", 128, "himeno grid NX (NY=NZ=64)")
		detect   = flag.Duration("detect", 20*time.Millisecond, "failure detection delay")
		l2every  = flag.Int("l2", 0, "flush every k-th checkpoint to the PFS (multilevel C/R; 0 = off)")
		redund   = flag.Int("redundancy", 1, "parity shards per group member (1 = ring-XOR, >= 2 = RS(k,m))")
		blast    = flag.Int("blast", 1, "nodes taken by each injected failure (correlated kill width)")
		recovery = flag.String("recovery", "global", "recovery protocol: global (rollback) | local (message logging) | replica (primary/shadow promotion)")
		doTrace  = flag.Bool("trace", false, "print the recovery timeline after the run")
		traceJS  = flag.String("trace-json", "", "write the recovery timeline as JSON Lines to this file")
		verbose  = flag.Bool("v", true, "print per-iteration progress from rank 0")
	)
	flag.Parse()

	cfg := fmi.Config{
		Ranks: *ranks, ProcsPerNode: *ppn, SpareNodes: *spares,
		CheckpointInterval: *interval, MTBF: *mtbf, XORGroupSize: 4,
		Level2Every: *l2every, Redundancy: *redund,
		Recovery:    *recovery,
		DetectDelay: *detect, PropDelay: *detect / 4,
		Timeout: 10 * time.Minute,
	}
	if *failures > 0 {
		cfg.Faults = &fmi.FaultPlan{MTBF: *mtbf, MaxFailures: *failures, Seed: *seed, Blast: *blast}
	}
	if *doTrace {
		cfg.TraceTo = os.Stderr
	}
	if *traceJS != "" {
		f, err := os.Create(*traceJS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fmirun:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceJSONTo = f
	}

	var body fmi.App
	switch *app {
	case "counter":
		body = counterApp(*iters, *verbose)
	case "himeno":
		body = himenoApp(*ranks, *grid, *iters, *verbose)
	case "pi":
		body = piApp(*iters, *verbose)
	default:
		fmt.Fprintf(os.Stderr, "fmirun: unknown app %q\n", *app)
		os.Exit(2)
	}

	start := time.Now()
	rep, err := fmi.Run(cfg, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmirun:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %v: %d checkpoint(s), %d failure(s) injected, %d recovery epoch(s), %d spare node(s) consumed\n",
		time.Since(start).Round(time.Millisecond), rep.Stats.Checkpoints, rep.FailuresInjected, rep.Recoveries, rep.SparesConsumed)
	if *recovery == "local" {
		fmt.Printf("message log: %d replay round(s), %d message(s) replayed, %d entries (%d B) held at exit\n",
			rep.Stats.Replays, rep.Stats.ReplayedMsgs, rep.Stats.LogEntries, rep.Stats.LogBytes)
	}
	if *verbose && len(rep.Stats.Matcher) > 0 {
		rr := make([]int, 0, len(rep.Stats.Matcher))
		for r := range rep.Stats.Matcher {
			rr = append(rr, r)
		}
		sort.Ints(rr)
		for _, r := range rr {
			c := rep.Stats.Matcher[r]
			fmt.Printf("rank %3d: %6d delivered, %4d stale dropped, %4d duplicate(s) suppressed, %d held at teardown\n",
				r, c.Delivered, c.Dropped, c.DupSuppressed, c.Held)
			// Per-source lane breakdown; sources the rank never heard
			// from are skipped.
			for src, lc := range c.PerSource {
				if lc.Delivered == 0 && lc.Dropped == 0 && lc.DupSuppressed == 0 && lc.Held == 0 {
					continue
				}
				fmt.Printf("  from %3d: %6d delivered, %4d stale dropped, %4d duplicate(s) suppressed, %d held at teardown\n",
					src, lc.Delivered, lc.Dropped, lc.DupSuppressed, lc.Held)
			}
		}
	}
}

func counterApp(iters int, verbose bool) fmi.App {
	return func(env *fmi.Env) error {
		state := make([]byte, 8)
		world := env.World()
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			sum, err := fmi.AllreduceInt64(world, fmi.SumInt64(), int64(n+env.Rank()))
			if err != nil {
				continue
			}
			binary.LittleEndian.PutUint64(state, uint64(n+1))
			if verbose && env.Rank() == 0 {
				fmt.Printf("iter %3d (epoch %d): allreduce sum = %d\n", n, env.Epoch(), sum[0])
			}
			time.Sleep(20 * time.Millisecond) // make progress visible
		}
		return env.Finalize()
	}
}

func himenoApp(ranks, nx, iters int, verbose bool) fmi.App {
	return func(env *fmi.Env) error {
		s, err := himeno.New(env.Rank(), ranks, nx, 64, 64)
		if err != nil {
			return err
		}
		for {
			it := env.Loop(s.State())
			if it >= iters {
				break
			}
			gosa, err := s.Step(env.World())
			if err != nil {
				continue
			}
			if verbose && env.Rank() == 0 && it%5 == 0 {
				fmt.Printf("iter %3d (epoch %d): gosa = %.6e\n", it, env.Epoch(), gosa)
			}
		}
		return env.Finalize()
	}
}

// piApp estimates π by Monte Carlo; the per-rank RNG state and hit
// counters are checkpointed so the estimate is unaffected by failures.
func piApp(iters int, verbose bool) fmi.App {
	const samplesPerIter = 200000
	return func(env *fmi.Env) error {
		state := make([]byte, 24) // hits, total, rng seed cursor
		world := env.World()
		var result float64
		for {
			n := env.Loop(state)
			if n >= iters {
				break
			}
			hits := int64(binary.LittleEndian.Uint64(state[0:]))
			total := int64(binary.LittleEndian.Uint64(state[8:]))
			// Deterministic per-(rank, iteration) stream: replaying an
			// iteration after rollback regenerates identical samples.
			rng := rand.New(rand.NewSource(int64(env.Rank())<<32 + int64(n)))
			for i := 0; i < samplesPerIter; i++ {
				x, y := rng.Float64(), rng.Float64()
				if x*x+y*y <= 1 {
					hits++
				}
				total++
			}
			binary.LittleEndian.PutUint64(state[0:], uint64(hits))
			binary.LittleEndian.PutUint64(state[8:], uint64(total))
			sums, err := fmi.AllreduceInt64(world, fmi.SumInt64(), hits, total)
			if err != nil {
				continue
			}
			result = 4 * float64(sums[0]) / float64(sums[1])
			if verbose && env.Rank() == 0 && n%5 == 0 {
				fmt.Printf("iter %3d (epoch %d): pi ≈ %.8f\n", n, env.Epoch(), result)
			}
		}
		if env.Rank() == 0 {
			fmt.Printf("final estimate: pi ≈ %.8f\n", result)
		}
		return env.Finalize()
	}
}
