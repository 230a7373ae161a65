// Command bench is the repository's one benchmark: messaging,
// checkpointing and recovery end to end through the public fmi.Run
// API, with a per-layer budget measured from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// stageShares are the shares of a run's measured time given to the
// three stages. The messaging stage has the most metrics to feed, and
// the noisiest.
var stageShares = []struct {
	kind  string
	share float64
}{{"msg", 0.38}, {"ckpt", 0.24}, {"fail", 0.38}}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	layers   bool
	aa       int
	smoke    bool
	out      string
	spec     string
	child    bool
}

func main() {
	started := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(suiteNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: payload bytes, kill loop ids and victim ranks")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run that gives the per-layer metrics")
	flag.BoolVar(&o.layers, "layers", false, "same as -trace 1")
	flag.IntVar(&o.aa, "aa", 0, "run the end-to-end set this many times, each with another seed, and fail if a metric's spread exceeds its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, all in one process: for the test")
	flag.StringVar(&o.out, "out", "out", "directory for spans.jsonl and the report files")
	flag.StringVar(&o.spec, "spec", "", "path of BENCHMARK.json (default: ./ or ../)")
	flag.BoolVar(&o.child, "child", false, "internal: run the one job described on standard input")
	flag.Parse()
	if o.layers {
		o.trace = 1
	}
	var err error
	if o.child {
		err = childMain()
	} else {
		err = parentMain(o, started)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parentMain(o options, started time.Time) error {
	todo := suites
	if o.workload != "all" {
		s, ok := suiteByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(suiteNames(), ", "))
		}
		todo = []suite{s}
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.aa > 0 {
		sp, err := loadSpec(o.spec)
		if err != nil {
			return err
		}
		return runAA(o, todo, budget, sp)
	}
	failed := false
	for i, s := range todo {
		if i > 0 {
			started = time.Now()
		}
		r := newRun(s, o, o.seed)
		var err error
		if o.trace == 1 {
			err = r.traced(budget)
		} else {
			err = r.endToEnd(budget, started)
		}
		if err != nil {
			return err
		}
		if err := r.report(); err != nil {
			return err
		}
		failed = failed || r.failed > 0
	}
	if failed {
		return fmt.Errorf("failed operations: the results are not correct")
	}
	return nil
}

// run is one benchmark run of one workload: it sends out the jobs and
// gathers what they measured.
type run struct {
	suite  suite
	sz     sizes
	seed   int64
	smoke  bool
	trace  bool // the traced run: per-layer metrics
	out    string
	exec   executor
	series map[string][]float64 // samples by metric
	hidden map[string][]float64 // the jobs' "_" samples
	jobs   map[string]int       // jobs sent out so far, by kind: a job's index is part of its seed

	attempted int
	failed    int
	failures  []string
	notes     []string
}

func newRun(s suite, o options, seed int64) *run {
	r := &run{
		suite: s, sz: fullSizes, seed: seed, smoke: o.smoke, trace: o.trace == 1, out: o.out,
		exec: subprocess, series: map[string][]float64{}, hidden: map[string][]float64{}, jobs: map[string]int{},
	}
	if o.smoke {
		r.sz = smokeSizes
		r.exec = inProcess
	}
	return r
}

// do runs one job and merges what it measured into the run.
func (r *run) do(req jobRequest) (*jobOutput, error) {
	req.Suite = r.suite.Name
	req.Seed = r.seed
	req.Smoke = r.smoke
	req.Out = r.out
	out, err := r.exec(req)
	if err != nil {
		return nil, err
	}
	for name, vals := range out.Samples {
		if strings.HasPrefix(name, "_") {
			r.hidden[name] = append(r.hidden[name], vals...)
		} else {
			r.sample(name, vals...)
		}
	}
	r.attempted += out.Attempted
	r.failed += out.Failed
	r.failures = append(r.failures, out.Failures...)
	r.notes = append(r.notes, out.Notes...)
	return out, nil
}

func (r *run) sample(name string, vals ...float64) {
	r.series[name] = append(r.series[name], vals...)
}

// stage runs jobs of one kind until budget is spent, at least one: the
// traced run's way. A job is started only if at least half of it is
// expected to fit, so that a stage overshoots its budget as often as it
// undershoots it.
func (r *run) stage(kind string, budget time.Duration, ref string) error {
	var last time.Duration
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Add(last/2).Before(deadline); i++ {
		start := time.Now()
		out, err := r.do(jobRequest{Kind: kind, Index: r.jobs[kind], Ref: ref, Traced: r.trace})
		last = time.Since(start)
		r.jobs[kind]++
		if err != nil {
			return err
		}
		if out.Failed > 0 {
			break
		}
	}
	return nil
}

// endToEnd is the untraced run: the reference solution, then jobs of
// the three stages.
func (r *run) endToEnd(budget time.Duration, started time.Time) error {
	init := time.Since(started)
	refStart := time.Now()
	refOut, err := r.do(jobRequest{Kind: "ref"})
	if err != nil {
		return err
	}
	refTime := time.Since(refStart)

	// The three kinds of job take turns, whichever is furthest behind
	// its share of the time next, so that every metric is sampled in
	// every part of the run: what the reference clock leaves of the
	// machine's drift then falls on all of them alike. A messaging job
	// lasts MsgJob; a Himeno job solves its fixed iteration count.
	var msgSetups, himenoSetups []setup
	var used time.Duration
	spent := map[string]time.Duration{}
	for used < budget || len(spent) < len(stageShares) {
		next := stageShares[0]
		for _, st := range stageShares[1:] {
			if float64(spent[st.kind])/st.share < float64(spent[next.kind])/next.share {
				next = st
			}
		}
		req := jobRequest{Kind: next.kind, Index: r.jobs[next.kind], Ref: refOut.Ref}
		if next.kind == "msg" {
			req.Budget = r.sz.MsgJob
		}
		r.jobs[next.kind]++
		start := time.Now()
		out, err := r.do(req)
		if err != nil {
			return err
		}
		if out.Failed > 0 {
			break
		}
		el := max(time.Since(start), time.Millisecond)
		spent[next.kind] += el
		used += el
		if next.kind == "msg" {
			msgSetups = append(msgSetups, setup{out.Setup, out.Setup * out.Scale})
		} else {
			himenoSetups = append(himenoSetups, setup{out.Setup, out.Setup * out.Scale})
		}
	}
	// Set-up is what comes before a first timed sample: start-up and
	// the reference solution once; a messaging job's process start,
	// launch, bootstrap, first checkpoint and warm-up; and a Himeno
	// job's. The last two happen several times per run and enter as
	// medians. All of it is on the reference clock.
	once := init.Seconds() + refTime.Seconds()
	total := setup{once, once * refOut.Scale}
	for _, s := range [][]setup{msgSetups, himenoSetups} {
		if len(s) > 0 {
			m := medianSetup(s)
			total.plain += m.plain
			total.onClock += m.onClock
		}
	}
	r.sample("setup_s", total.onClock)
	r.hidden[plainPrefix+"setup_s"] = []float64{total.plain}
	return nil
}

// setup is one set-up time, as measured and on the reference clock.
type setup struct{ plain, onClock float64 }

func medianSetup(s []setup) setup {
	var p, c []float64
	for _, v := range s {
		p = append(p, v.plain)
		c = append(c, v.onClock)
	}
	return setup{median(p), median(c)}
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// machine is the fingerprint recorded with every report.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func fingerprint() machine {
	return machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}

type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Plain    float64 `json:"plain,omitempty"` // an end-to-end metric's median as measured, before the reference clock
	Pct      float64 `json:"pct"`             // the highest percentile with at least ten samples beyond it
	PXX      float64 `json:"pXX"`             // its value
	Better   string  `json:"better"`
}

type reportDoc struct {
	Experiment string  `json:"experiment"`
	Machine    machine `json:"machine"`
	Seed       int64   `json:"seed"`
	Rows       []row   `json:"rows"`
}

// result is the last line of standard output, in the form the
// acceptance driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rows lists the run's metrics in declaration order. A declared metric
// of this run's kind that has no sample is an error: every run reports
// every metric.
func (r *run) rows() ([]row, error) {
	for name := range r.series {
		if _, ok := lookupDef(name); !ok {
			return nil, fmt.Errorf("%s: samples for undeclared metric %s", r.suite.Name, name)
		}
	}
	var rows []row
	for _, d := range metricDefs {
		if d.E2E == r.trace {
			continue
		}
		vals := r.series[d.Name]
		if len(vals) == 0 {
			if r.failed > 0 {
				continue // the failed operation is what is reported
			}
			return nil, fmt.Errorf("%s: metric %s has no samples", r.suite.Name, d.Name)
		}
		med := median(vals)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.suite.Name, d.Name, med)
		}
		pct, v := tail(vals)
		plain := 0.0
		if p := r.hidden[plainPrefix+d.Name]; len(p) > 0 {
			plain = median(p)
		}
		rows = append(rows, row{r.suite.Name, d.Name, d.Unit, len(vals), med, plain, pct, v, d.Better})
	}
	return rows, nil
}

// report prints every metric by name with unit, median, upper
// percentile and sample count, writes the report file, and ends with
// the one-line result.
func (r *run) report() error {
	kind := "end-to-end"
	if r.trace {
		kind = "per-layer"
	}
	rows, err := r.rows()
	if err != nil {
		return err
	}
	m := fingerprint()
	fmt.Printf("# %s  %s  seed %d  %s  nproc %d gomaxprocs %d %s %s\n", r.suite.Name, kind, r.seed, describeSizes(r.sz), m.NProc, m.GOMAXPROCS, m.Go, m.OS)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if r.trace {
		fmt.Fprintln(tw, "metric\tunit\tmedian\tupper\t\tn\tbetter")
		for _, rw := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\tp%.0f\t%.6g\t%d\t%s\n", rw.Metric, rw.Unit, rw.Median, rw.Pct, rw.PXX, rw.N, rw.Better)
		}
	} else {
		// median and upper are on the reference clock; plain is the
		// median as measured.
		fmt.Fprintln(tw, "metric\tunit\tmedian\tupper\t\tn\tbetter\tplain")
		for _, rw := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\tp%.0f\t%.6g\t%d\t%s\t%.6g\n", rw.Metric, rw.Unit, rw.Median, rw.Pct, rw.PXX, rw.N, rw.Better, rw.Plain)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("ops %d  failed_ops %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}

	doc := reportDoc{Experiment: "fmi-bench/" + kind, Machine: m, Seed: r.seed, Rows: rows}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.out, "report-"+r.suite.Name+"-"+kind+".json"), append(body, '\n'), 0o644); err != nil {
		return err
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, rw := range rows {
		res.Metrics[rw.Metric] = metricValue{rw.Median, rw.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
