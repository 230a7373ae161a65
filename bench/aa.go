package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the working
// directory or its parent (the benchmark is run from either).
func loadSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var body []byte
	var err error
	for _, c := range candidates {
		if body, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(body, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// runAA compares the build with itself: the end-to-end set o.aa times,
// each time with another seed, and per metric and workload the min,
// median, max and the spread the acceptance driver computes
// (interquartile range over median), beside the spread the same runs
// had as measured, before the reference clock. A spread beyond a third
// of the metric's bound is pointed out; one beyond the bound fails the
// command.
func runAA(o options, todo []suite, budget time.Duration, sp *spec) error {
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	over := 0
	for _, s := range todo {
		vals, plain := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < o.aa; i++ {
			r := newRun(s, o, o.seed+int64(i))
			if err := r.endToEnd(budget, time.Now()); err != nil {
				return err
			}
			if r.failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed operations: %v", s.Name, r.seed, r.failed, r.failures)
			}
			rows, err := r.rows()
			if err != nil {
				return err
			}
			for _, rw := range rows {
				vals[rw.Metric] = append(vals[rw.Metric], rw.Median)
				plain[rw.Metric] = append(plain[rw.Metric], rw.Plain)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d of %d done\n", s.Name, i+1, o.aa)
		}
		fmt.Printf("# %s  %d runs, seeds %d..%d\n", s.Name, o.aa, o.seed, o.seed+int64(o.aa)-1)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tmin\tmedian\tmax\tspread\tbound\tas measured\t")
		for _, d := range metricDefs {
			v := append([]float64(nil), vals[d.Name]...)
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			sprd := spread(v)
			verdict := ""
			switch b := bounds[d.Name]; {
			case d.Name == "setup_s":
				verdict = "not gated on spread"
			case sprd > b:
				verdict = "OVER BOUND"
				over++
			case sprd > b/3:
				verdict = "over a third of the bound"
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%.2f%%\t%s\n", d.Name, v[0], median(v), v[len(v)-1], 100*sprd, 100*bounds[d.Name], 100*spread(plain[d.Name]), verdict)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric(s) spread beyond their bound", over)
	}
	return nil
}
