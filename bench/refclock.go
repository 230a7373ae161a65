package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The reference clock. The machines this benchmark runs on are a few
// cores of a shared host whose speed moves by a factor of up to 1.8
// (clock frequency, and the neighbours' traffic through the shared
// cache), within seconds and for minutes at a time: the same job, in
// fresh processes, took 1.0 s and 1.7 s a minute apart. Repetition
// inside a run does not average that out, and two runs minutes apart
// differ by it.
//
// So every timed sample is taken next to a reference kernel: a fixed
// piece of work that belongs to the benchmark, not to the program under
// test, and that the host slows down when it slows the program down. A
// sample is reported on the reference clock: its duration times
// refNominal over what the kernel took next to it (to the power of the
// metric's Clock, suite.go). On a host in its usual state the factor is
// near 1 and the numbers read as plain times; on a slowed host the
// kernel and the program are slowed together and the numbers stay
// where they were. A change to the program moves the program's times
// and not the kernel's, so it shows in full. The times as measured are
// reported beside them.
//
// The kernel is a 7-point relaxation sweep over a grid the size of one
// Himeno rank's slab, on one thread: floating-point work streaming
// 4.4 MB through the private and the shared cache. Of an arithmetic
// chain, a streaming triad, goroutine hand-offs with and without
// copies, and this sweep, it was the one whose time followed the
// workloads' times most closely, messaging and Himeno alike; see README
// "How it measures".

const (
	refNX, refNY, refNZ = 34, 128, 128
	refSweeps           = 3 // timed sweeps per probe, after one untimed

	// refNominal is what a sweep takes on the development machine in
	// its usual state. It only fixes the scale of the reported numbers.
	refNominal = 1500 * time.Microsecond
)

type refGrid struct{ p, w []float32 }

var (
	refOnce  sync.Once
	refGrid0 refGrid
	refSink  float32
)

func refInit() {
	n := refNX * refNY * refNZ
	refGrid0.p = make([]float32, n)
	refGrid0.w = make([]float32, n)
	for i := range refGrid0.p {
		v := float32(i%refNZ) / refNZ
		refGrid0.p[i] = v * v
		refGrid0.w[i] = v * v
	}
}

// sweep relaxes every interior point once and returns the residual.
func (g *refGrid) sweep() float32 {
	const sy, sx = refNZ, refNY * refNZ
	p, w := g.p, g.w
	var res float32
	for i := 1; i < refNX-1; i++ {
		for j := 1; j < refNY-1; j++ {
			b := i*sx + j*sy
			for k := b + 1; k < b+refNZ-1; k++ {
				d := (p[k-sx]+p[k+sx]+p[k-sy]+p[k+sy]+p[k-1]+p[k+1])*(1.0/6.0) - p[k]
				res += d * d
				w[k] = p[k] + 0.8*d
			}
		}
	}
	g.p, g.w = w, p
	return res
}

// refProbe runs the reference kernel on the calling goroutine: one
// untimed sweep, then refSweeps timed ones, and returns their median.
// It takes about 6 ms. The messaging job calls it between passes, while
// the other ranks wait parked.
func refProbe() time.Duration {
	refOnce.Do(refInit)
	var times [refSweeps]time.Duration
	for s := -1; s < refSweeps; s++ {
		t := time.Now()
		refSink = refGrid0.sweep()
		if s >= 0 {
			times[s] = time.Since(t)
		}
	}
	sort.Slice(times[:], func(a, b int) bool { return times[a] < times[b] })
	return times[refSweeps/2]
}

// refSweep is a single timed sweep. The Himeno jobs' rank 0 calls it
// every few iterations, so that a job's reference is spread over the
// job as its iterations are.
func refSweep() time.Duration {
	t := time.Now()
	refSink = refGrid0.sweep()
	return time.Since(t)
}

// refScale is the factor that puts a duration on the reference clock,
// given what the kernel took next to it.
func refScale(kernel time.Duration) float64 {
	return float64(refNominal) / float64(kernel)
}

// onClock puts a sample of the named metric on the reference clock: the
// factor to the power of the metric's Clock.
func onClock(name string, raw, scale float64) float64 {
	d, _ := lookupDef(name)
	return raw * math.Pow(scale, d.Clock)
}
