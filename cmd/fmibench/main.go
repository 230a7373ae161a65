// fmibench regenerates the measured experiments of the paper's
// evaluation (§VI): Figs 10-15 and Table III, plus two ablations. Each
// subcommand prints the same rows/series the paper reports, measured
// on this machine's simulated cluster (scaled data sizes; paper-scale
// model values printed alongside where the paper's numbers depend on
// Sierra hardware).
//
// Usage:
//
//	fmibench [flags] <experiment>
//
// Experiments: table3, fig10, fig11, fig12, fig13, fig14, fig15,
// fig15-sweep, ablate-k, ablate-group, erasure, msglog, all.
//
// The benchmark of record (messaging, checkpoint and recovery end to
// end, with a per-layer budget) is bench/; see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fmi/internal/experiments"
)

func main() {
	var (
		ckptMB   = flag.Int("ckpt-mb", 8, "checkpoint size per rank in MiB (figs 10-12)")
		maxProcs = flag.Int("max-procs", 768, "largest process count in sweeps (figs 12-14)")
		detect   = flag.Duration("detect", 200*time.Millisecond, "failure detect delay (fig 13; paper's ibverbs showed ~0.2s)")
		prop     = flag.Duration("prop", 20*time.Millisecond, "close propagation delay (fig 13)")
		ranks    = flag.Int("ranks", 0, "ranks for fig 15 (0 = calibrated default)")
		iters    = flag.Int("iters", 0, "iterations for fig 15 (0 = calibrated default)")
		grid     = flag.Int("grid", 0, "fig 15 grid first dimension (0 = calibrated default)")
		mtbf     = flag.Duration("mtbf", 0, "fig 15 MTBF (0 = calibrated default; paper used 1 minute at Sierra scale)")
		quick    = flag.Bool("quick", false, "shrink every sweep for a fast smoke run")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fmibench [flags] <table3|fig10|fig11|fig12|fig13|fig14|fig15|fig15-sweep|ablate-k|ablate-group|erasure|msglog|all>")
		os.Exit(2)
	}
	which := flag.Arg(0)

	procSweep := []int{48, 96, 192, 384, 768, 1536} // the paper's x-axis
	var trimmed []int
	for _, n := range procSweep {
		if n <= *maxProcs {
			trimmed = append(trimmed, n)
		}
	}
	procSweep = trimmed
	groupSweep := []int{2, 4, 8, 16, 32, 64}
	if *quick {
		procSweep = []int{16, 48}
		groupSweep = []int{2, 4, 8}
		*ckptMB = 1
		*detect, *prop = 5*time.Millisecond, 2*time.Millisecond
		*ranks, *iters, *grid, *mtbf = 4, 120, 66, 300*time.Millisecond
	}
	ckptBytes := *ckptMB << 20

	run := func(name string) {
		switch name {
		case "table3":
			rows, err := experiments.Table3()
			fatalIf(err)
			experiments.PrintTable3(os.Stdout, rows)
		case "fig10", "fig11":
			rows, err := experiments.XORGroupSweep(groupSweep, ckptBytes)
			fatalIf(err)
			if name == "fig10" {
				experiments.PrintFig10(os.Stdout, rows)
			} else {
				experiments.PrintFig11(os.Stdout, rows)
			}
		case "fig12":
			// Keep the aggregate bounded: on real hardware each rank
			// has its own memory; here they share the host's, so the
			// per-rank size shrinks as the process count grows.
			const aggregate = 128 << 20
			rows, err := experiments.CRThroughputSweepAggregate(procSweep, 16, aggregate)
			fatalIf(err)
			experiments.PrintFig12(os.Stdout, rows)
		case "fig13":
			rows, err := experiments.NotifySweep(procSweep, 2, *detect, *prop)
			fatalIf(err)
			experiments.PrintFig13(os.Stdout, rows, *detect, *prop)
		case "fig14":
			rows, err := experiments.InitSweep(procSweep, 2)
			fatalIf(err)
			experiments.PrintFig14(os.Stdout, rows)
		case "fig15":
			cfg := experiments.DefaultFig15Config()
			if *ranks > 0 {
				cfg.Ranks = *ranks
			}
			if *iters > 0 {
				cfg.Iters = *iters
			}
			if *grid > 0 {
				cfg.NX = *grid
			}
			if *mtbf > 0 {
				cfg.MTBF = *mtbf
			}
			rows, err := experiments.Fig15(cfg)
			fatalIf(err)
			experiments.PrintFig15(os.Stdout, cfg, rows)
		case "fig15-sweep":
			cfg := experiments.DefaultFig15Config()
			cfg.Iters = 150
			if *quick {
				cfg = experiments.Fig15Config{
					Ranks: 4, ProcsPerNode: 2, NX: 66, NY: 64, NZ: 64,
					Iters: 60, MTBF: 400 * time.Millisecond, Spares: 6, Seed: 7,
					DetectDelay: 5 * time.Millisecond, PropDelay: 2 * time.Millisecond,
					Timeout: 10 * time.Minute,
				}
			}
			counts := []int{2, 4, 8, 16}
			if *quick {
				counts = []int{2, 4}
			}
			sweep, err := experiments.Fig15Sweep(cfg, counts)
			fatalIf(err)
			experiments.PrintFig15Sweep(os.Stdout, cfg, sweep)
		case "ablate-k":
			n := 256
			if *quick {
				n = 64
			}
			rows, err := experiments.AblateK(n, []int{2, 4, 8, 16}, *detect, *prop)
			fatalIf(err)
			experiments.PrintAblateK(os.Stdout, n, rows)
		case "ablate-group":
			rows := experiments.AblateGroup(1024, groupSweep)
			experiments.PrintAblateGroup(os.Stdout, 1024, rows)
		case "msglog":
			// Sender-based message logging (§VIII extension): failure-free
			// logging overhead and the survivor rework that localized
			// recovery removes, global vs local at two process counts.
			rc, it, iv := []int{4, 8}, 30, 4
			if *quick {
				rc, it, iv = []int{4}, 12, 3
			}
			rows, err := experiments.MsgLog(rc, it, iv)
			fatalIf(err)
			experiments.PrintMsgLog(os.Stdout, it, iv, rows)
		case "erasure":
			// Redundancy sweep (§VIII extension): ring-XOR m=1 against
			// RS(k,m) for m in {2,3} over one group, then the raw
			// GF(2^8) kernel scalar-vs-parallel comparison.
			g, shard, dur := 8, 4<<20, 300*time.Millisecond
			if *quick {
				g, shard, dur = 4, 1<<20, 50*time.Millisecond
			}
			rows, err := experiments.ErasureSweep([]int{1, 2, 3}, g, ckptBytes)
			fatalIf(err)
			experiments.PrintErasure(os.Stdout, rows)
			fmt.Println()
			kern, err := experiments.ErasureKernelBench(shard, [][2]int{{15, 1}, {14, 2}, {13, 3}}, dur)
			fatalIf(err)
			experiments.PrintErasureKernels(os.Stdout, shard, kern)
		default:
			fmt.Fprintf(os.Stderr, "fmibench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if which == "all" {
		for _, name := range []string{"table3", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "ablate-k", "ablate-group", "erasure", "msglog"} {
			run(name)
		}
		return
	}
	run(which)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmibench:", err)
		os.Exit(1)
	}
}
