package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"fmi"
	"fmi/internal/himeno"
	"fmi/internal/model"
	"fmi/internal/mpi"
	"fmi/internal/pfs"
)

// Fig15Config parameterises the Himeno application study (paper
// §VI-B, Fig 15). The paper ran up to 1536 processes with 821 MB/node
// checkpoints and MTBF = 1 minute; defaults here are laptop-scaled.
type Fig15Config struct {
	Ranks        int
	ProcsPerNode int
	NX, NY, NZ   int
	Iters        int
	MTBF         time.Duration // failure rate for the C/R series and interval tuning
	Spares       int
	Seed         int64
	DetectDelay  time.Duration
	PropDelay    time.Duration
	Timeout      time.Duration
	// ScriptLoops, if non-empty, replaces Poisson injection in the
	// C/R series with deterministic node kills fired when these loop
	// ids complete (used by tests).
	ScriptLoops []int
}

// DefaultFig15Config returns a configuration that runs in tens of
// seconds on a multicore laptop while preserving the figure's
// structure: each series runs ~8-10 s of compute (≈20 ms per
// iteration), so an MTBF of 2 s injects several failures into the C/R
// series, mirroring the paper's one-minute MTBF against multi-minute
// runs.
func DefaultFig15Config() Fig15Config {
	return Fig15Config{
		Ranks: 8, ProcsPerNode: 2,
		NX: 258, NY: 128, NZ: 128,
		Iters: 400, MTBF: 2 * time.Second, Spares: 8, Seed: 7,
		DetectDelay: 5 * time.Millisecond, PropDelay: 2 * time.Millisecond,
		Timeout: 30 * time.Minute,
	}
}

// Fig15Row is one series of the figure.
type Fig15Row struct {
	Series      string
	GFLOPS      float64
	WallSeconds float64
	Checkpoints int
	Failures    int
	Recoveries  int
	Interval    int

	meanCkpt time.Duration // per-rank mean checkpoint cost (calibration)
}

// usefulFlops is the work the run must complete regardless of
// failures; dividing it by wall time yields the paper's "useful
// progress" FLOPS metric (recomputation and C/R time lower it).
func (c Fig15Config) usefulFlops() float64 {
	pts := float64((c.NX - 2) * (c.NY - 2) * (c.NZ - 2))
	return pts * himeno.FlopsPerPoint * float64(c.Iters)
}

// fmiApp builds the FMI Himeno application.
func fmiApp(c Fig15Config) fmi.App {
	return func(env *fmi.Env) error {
		s, err := himeno.New(env.Rank(), c.Ranks, c.NX, c.NY, c.NZ)
		if err != nil {
			return err
		}
		for {
			it := env.Loop(s.State())
			if it >= c.Iters {
				break
			}
			if _, err := s.Step(env.World()); err != nil {
				continue
			}
		}
		return env.Finalize()
	}
}

// runFMI executes one FMI series.
func runFMI(c Fig15Config, interval int, faults *fmi.FaultPlan) (Fig15Row, error) {
	cfg := fmi.Config{
		Ranks: c.Ranks, ProcsPerNode: c.ProcsPerNode, SpareNodes: c.Spares,
		CheckpointInterval: interval, MTBF: c.MTBF, XORGroupSize: 4,
		DetectDelay: c.DetectDelay, PropDelay: c.PropDelay,
		Faults: faults, Timeout: c.Timeout,
	}
	// Start from a collected heap: the previous series' garbage is not
	// this one's cost.
	runtime.GC()
	start := time.Now()
	rep, err := fmi.Run(cfg, fmiApp(c))
	if err != nil {
		return Fig15Row{}, err
	}
	wall := time.Since(start).Seconds()
	row := Fig15Row{
		GFLOPS:      c.usefulFlops() / wall / 1e9,
		WallSeconds: wall,
		Checkpoints: rep.Stats.Checkpoints,
		Failures:    rep.FailuresInjected,
		Recoveries:  rep.Recoveries,
		Interval:    interval,
	}
	if rep.Stats.Checkpoints > 0 {
		row.meanCkpt = rep.Stats.CheckpointTime / time.Duration(rep.Stats.Checkpoints)
	}
	return row, nil
}

// runMPI executes one MPI series; interval <= 0 disables
// checkpointing.
func runMPI(c Fig15Config, interval int) (Fig15Row, error) {
	cfg := mpi.Config{
		Ranks: c.Ranks, ProcsPerNode: c.ProcsPerNode, SpareNodes: c.Spares,
		GroupSize: 4, LocalModel: pfs.SierraTmpfs(), Timeout: c.Timeout,
	}
	runtime.GC() // as in runFMI
	start := time.Now()
	rep, err := mpi.Run(cfg, func(p *mpi.Proc) error {
		s, err := himeno.New(p.Rank(), c.Ranks, c.NX, c.NY, c.NZ)
		if err != nil {
			return err
		}
		startIt := 0
		if id, ok, err := p.Restore(s.State()); err != nil {
			return err
		} else if ok {
			startIt = id + 1
		}
		for n := startIt; n < c.Iters; n++ {
			if _, err := s.Step(p); err != nil {
				return err
			}
			if interval > 0 && n%interval == 0 {
				if err := p.Checkpoint(n, s.State()); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return Fig15Row{}, err
	}
	wall := time.Since(start).Seconds()
	return Fig15Row{
		GFLOPS:      c.usefulFlops() / wall / 1e9,
		WallSeconds: wall,
		Checkpoints: rep.Checkpoints,
		Interval:    interval,
	}, nil
}

// crFaults is the failure plan of the FMI + C/R series: Poisson kills
// at the configured MTBF, or the scripted kills of ScriptLoops.
func (c Fig15Config) crFaults() *fmi.FaultPlan {
	if len(c.ScriptLoops) == 0 {
		return &fmi.FaultPlan{MTBF: c.MTBF, Seed: c.Seed, MaxFailures: maxFailures(c)}
	}
	plan := &fmi.FaultPlan{Seed: c.Seed}
	for i, id := range c.ScriptLoops {
		plan.Script = append(plan.Script, fmi.Fault{AfterLoop: id, Node: -1, Rank: i % c.Ranks})
	}
	return plan
}

// Fig15 runs all five series: MPI, FMI (failure-free, no checkpoints),
// MPI+C, FMI+C (checkpointing, no failures), FMI+C/R (checkpointing
// with Poisson failures at the configured MTBF).
func Fig15(c Fig15Config) ([]Fig15Row, error) {
	// Calibration probe: a short FMI run with interval 1 measures the
	// per-iteration and per-checkpoint costs, from which Vaidya's model
	// (paper §III-B) fixes the interval used by every checkpointing
	// series.
	probeCfg := c
	probeCfg.Iters = 4
	probeRow, err := runFMI(probeCfg, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("fig15 probe: %w", err)
	}
	iterTime := time.Duration(probeRow.WallSeconds / float64(probeCfg.Iters) * float64(time.Second))
	ckptTime := probeRow.meanCkpt
	if ckptTime <= 0 {
		ckptTime = iterTime / 3
	}
	interval := model.VaidyaIterations(ckptTime, c.MTBF, iterTime)

	type series struct {
		name string
		run  func() (Fig15Row, error)
	}
	runs := []series{
		{"MPI", func() (Fig15Row, error) { return runMPI(c, 0) }},
		{"FMI", func() (Fig15Row, error) { return runFMI(c, 1<<30, nil) }},
		{"MPI + C", func() (Fig15Row, error) { return runMPI(c, interval) }},
		{"FMI + C", func() (Fig15Row, error) { return runFMI(c, interval, nil) }},
		{"FMI + C/R", func() (Fig15Row, error) { return runFMI(c, interval, c.crFaults()) }},
	}
	var rows []Fig15Row
	for _, s := range runs {
		row, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", s.name, err)
		}
		row.Series = s.name
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig15SweepRow is one (process count, series) cell of the full
// figure, whose x-axis in the paper is the process count (48-1536 on
// Sierra).
type Fig15SweepRow struct {
	Ranks int
	Rows  []Fig15Row
}

// Fig15Sweep runs the five series at several process counts over a
// fixed global grid (strong scaling). On a single host the GFLOPS
// ceiling is the machine's core count rather than the cluster size, so
// the reproduced claim is the per-point *ordering* of the five series,
// not linear scaling.
func Fig15Sweep(base Fig15Config, rankCounts []int) ([]Fig15SweepRow, error) {
	var out []Fig15SweepRow
	for _, n := range rankCounts {
		cfg := base
		cfg.Ranks = n
		if cfg.ProcsPerNode > n {
			cfg.ProcsPerNode = n
		}
		rows, err := Fig15(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig15 sweep n=%d: %w", n, err)
		}
		out = append(out, Fig15SweepRow{Ranks: n, Rows: rows})
	}
	return out, nil
}

// PrintFig15Sweep prints the sweep as a series-by-procs matrix.
func PrintFig15Sweep(w io.Writer, c Fig15Config, sweep []Fig15SweepRow) {
	fmt.Fprintf(w, "Fig 15 (full sweep): Himeno %dx%dx%d GFLOPS by process count, MTBF=%v\n",
		c.NX, c.NY, c.NZ, c.MTBF)
	fmt.Fprintf(w, "%12s", "series")
	for _, p := range sweep {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("%d ranks", p.Ranks))
	}
	fmt.Fprintln(w)
	if len(sweep) == 0 {
		return
	}
	for i := range sweep[0].Rows {
		fmt.Fprintf(w, "%12s", sweep[0].Rows[i].Series)
		for _, p := range sweep {
			fmt.Fprintf(w, " %10.3f", p.Rows[i].GFLOPS)
		}
		fmt.Fprintln(w)
	}
}

// maxFailures bounds Poisson injection so the job can still finish
// within the spare budget.
func maxFailures(c Fig15Config) int {
	if c.Spares > 0 {
		return c.Spares
	}
	return 3
}

// PrintFig15 prints the series with the efficiency ratios the paper
// reports (FMI+C/R at 72% of FMI ⇒ 28% overhead; FMI+C ~10% above
// MPI+C).
func PrintFig15(w io.Writer, c Fig15Config, rows []Fig15Row) {
	fmt.Fprintf(w, "Fig 15: Himeno %dx%dx%d, %d ranks, %d iters, MTBF=%v\n",
		c.NX, c.NY, c.NZ, c.Ranks, c.Iters, c.MTBF)
	fmt.Fprintf(w, "%10s %10s %10s %8s %8s %8s %8s\n", "series", "GFLOPS", "wall(s)", "ckpts", "fails", "recov", "intvl")
	var fmiBase, fmiCR, mpiC, fmiC float64
	for _, r := range rows {
		fmt.Fprintf(w, "%10s %10.3f %10.2f %8d %8d %8d %8d\n",
			r.Series, r.GFLOPS, r.WallSeconds, r.Checkpoints, r.Failures, r.Recoveries, r.Interval)
		switch r.Series {
		case "FMI":
			fmiBase = r.GFLOPS
		case "FMI + C/R":
			fmiCR = r.GFLOPS
		case "MPI + C":
			mpiC = r.GFLOPS
		case "FMI + C":
			fmiC = r.GFLOPS
		}
	}
	if fmiBase > 0 && fmiCR > 0 {
		fmt.Fprintf(w, "FMI+C/R efficiency vs FMI: %.1f%% (paper: 72%%, i.e. 28%% overhead at MTBF=1min)\n",
			100*fmiCR/fmiBase)
	}
	if mpiC > 0 && fmiC > 0 {
		fmt.Fprintf(w, "FMI+C vs MPI+C: %+.1f%% (paper: +10.3%%)\n", 100*(fmiC/mpiC-1))
	}
}
