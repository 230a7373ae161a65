package main

import (
	"math"
	"regexp"
	"sort"
	"testing"
	"time"
)

// TestSmokeMatchesSpec runs every workload at smoke size, untraced and
// traced, and checks that what the program emits is what BENCHMARK.json
// declares: the same workloads, the same metric names with the same
// units and directions, well-formed names, and no failed operation.
func TestSmokeMatchesSpec(t *testing.T) {
	sp, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	if got := suiteNames(); !equalSets(got, declared) {
		t.Fatalf("workloads: program has %v, BENCHMARK.json declares %v", got, declared)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	o := options{smoke: true, out: t.TempDir()}
	for _, s := range suites {
		for _, mode := range []struct {
			trace int
			want  []specMetric
		}{{0, sp.EndToEnd}, {1, sp.PerLayer}} {
			o.trace = mode.trace
			r := newRun(s, o, 7)
			if mode.trace == 1 {
				err = r.traced(200 * time.Millisecond)
			} else {
				err = r.endToEnd(200*time.Millisecond, time.Now())
			}
			if err != nil {
				t.Fatalf("%s trace %d: %v", s.Name, mode.trace, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s trace %d: %d of %d operations failed: %v", s.Name, mode.trace, r.failed, r.attempted, r.failures)
			}
			rows, err := r.rows()
			if err != nil {
				t.Fatalf("%s trace %d: %v", s.Name, mode.trace, err)
			}
			want := map[string]specMetric{}
			for _, m := range mode.want {
				want[m.Name] = m
			}
			if len(rows) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", s.Name, mode.trace, len(rows), len(want))
			}
			for _, rw := range rows {
				m, ok := want[rw.Metric]
				switch {
				case !ok:
					t.Errorf("%s trace %d: emits %s, which BENCHMARK.json does not declare", s.Name, mode.trace, rw.Metric)
				case m.Unit != rw.Unit || m.Better != rw.Better:
					t.Errorf("%s: emitted as %s/%s, declared as %s/%s", rw.Metric, rw.Unit, rw.Better, m.Unit, m.Better)
				case !name.MatchString(rw.Metric):
					t.Errorf("metric name %q is not well-formed", rw.Metric)
				case mode.trace == 0 && !(rw.Median > 0):
					t.Errorf("%s %s = %v: an end-to-end metric is never 0", s.Name, rw.Metric, rw.Median)
				}
				delete(want, rw.Metric)
			}
			for missing := range want {
				t.Errorf("%s trace %d: %s is declared but not emitted", s.Name, mode.trace, missing)
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTail(t *testing.T) {
	var vals []float64
	for i := 1; i <= 100; i++ {
		vals = append(vals, float64(i))
	}
	if pct, v := tail(vals); pct != 90 || v != 90 {
		t.Errorf("100 samples: p%v = %v, want p90 = 90 (ten samples beyond it)", pct, v)
	}
	if pct, v := tail(vals[:12]); pct != 50 || v != median(vals[:12]) {
		t.Errorf("12 samples: p%v = %v, want the median", pct, v)
	}
}

// TestSpread pins the interquartile spread to what Python's
// statistics.quantiles(values, n=4) gives, since that is what the
// acceptance driver computes.
func TestSpread(t *testing.T) {
	vals := []float64{10, 12, 11, 15, 13, 14, 19, 10.5, 12.5, 16}
	// statistics.quantiles -> [10.875, 12.75, 15.25]; median 12.75
	want := (15.25 - 10.875) / 12.75
	if got := spread(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
