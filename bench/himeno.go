package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"fmi"
	"fmi/internal/core"
	"fmi/internal/himeno"
)

// The Himeno stages are the paper's application study (Fig 15): a
// Jacobi solver whose pressure grid is the checkpoint segment, one
// rank per node, a checkpoint every 4 iterations. Each job solves a
// fixed iteration count, so its wall time is a time to solution. The
// checkpoint stage runs failure-free; the failure stage runs the same
// job under a seeded script of node kills and must reach the same
// residual, bit for bit. Rank 0 runs one sweep of the reference kernel
// (refclock.go) every probeEvery iterations, and their sum is taken out
// of the job's wall time. The job's times go on the reference clock by
// those sweeps: by their median the times that are themselves reported
// as medians over samples (iterations, checkpoints), by their mean the
// ones that are sums (the wall, the set-up, the recoveries), because
// the moments the host takes a core away lengthen a sum and a mean
// alike and leave a median alone.

// himenoResult is what rank 0 and the report say about one job.
type himenoResult struct {
	WarmDone time.Time       // end of the warm-up iterations on rank 0
	Wall     time.Duration   // from there to the return of fmi.Run
	Iter     []time.Duration // rank 0's Step calls
	Ckpt     []time.Duration // rank 0's Loop calls that took a checkpoint
	Residual float64         // global gosa after the last iteration
	Scale    float64         // onto the reference clock, by the median sweep
	ScaleSum float64         // by the mean sweep
	Report   *fmi.Report
	Err      error
}

func (j *job) himenoConfig(interval int, script []fmi.Fault) fmi.Config {
	cfg := baseConfig(j.suite)
	cfg.ProcsPerNode = 1
	cfg.CheckpointInterval = interval
	if len(script) > 0 {
		cfg.Faults = &fmi.FaultPlan{Script: script, Seed: j.req.Seed}
		cfg.SpareNodes = len(script) + 1
	}
	return cfg
}

// killScript draws the job's node kills: loop ids at least KillGapMin
// apart, so that each recovery is over before the next kill, at a
// seeded phase within the checkpoint interval, so that the lost work
// varies; victims among ranks 1-3, because rank 0 holds the clock.
func (j *job) killScript() []fmi.Fault {
	var script []fmi.Fault
	for l := j.sz.Warm + 4 + j.rng.Intn(j.sz.KillGapMin); l < j.sz.Iters-4; l += j.sz.KillGapMin + j.rng.Intn(j.sz.KillGapVar) {
		script = append(script, fmi.Fault{AfterLoop: l, Node: -1, Rank: 1 + j.rng.Intn(ranks-1)})
	}
	return script
}

// runHimeno runs one job; name labels its spans.
func (j *job) runHimeno(name string, cfg fmi.Config) himenoResult {
	var res himenoResult
	if j.spans != nil {
		cfg.TraceTo = io.Discard // the events come back in Report.Timeline
	}
	sz := j.sz
	refOnce.Do(refInit)
	var probes []time.Duration
	var probed time.Duration
	root := j.spans.begin("job", name, nil)
	res.Report, res.Err = fmi.Run(cfg, func(env *fmi.Env) error {
		s, err := himeno.New(env.Rank(), ranks, sz.NX, sz.NY, sz.NZ)
		if err != nil {
			return err
		}
		if env.Rank() != 0 {
			// Ranks 1-3 may be killed and respawned: they keep no
			// benchmark state.
			for env.Loop(s.State()) < sz.Iters {
				_, _ = s.Step(env.World()) // an error is a failure notice; the next Loop recovers
			}
			return env.Finalize()
		}
		var comm himeno.Comm = env.World()
		tc := &timedComm{c: env.World(), log: j.spans, job: name}
		if j.spans != nil {
			comm = tc
		}
		for {
			iterSpan := j.spans.begin("app.iter", name, root)
			loopSpan := j.spans.begin("core.loop", name, iterSpan)
			t0 := time.Now()
			it := env.Loop(s.State())
			t1 := time.Now()
			// Failure-free, Loop checkpoints on the first call and
			// then on every ckptInterval-th.
			tookCkpt := cfg.Faults == nil && cfg.CheckpointInterval == ckptInterval && it%ckptInterval == 0
			if tookCkpt {
				loopSpan.rename("core.loop_ckpt")
			}
			loopSpan.end()
			if it == sz.Warm && res.WarmDone.IsZero() {
				res.WarmDone = t1
			}
			if tookCkpt && it >= sz.Warm && it < sz.Iters {
				res.Ckpt = append(res.Ckpt, t1.Sub(t0))
			}
			if it >= sz.Iters {
				iterSpan.end()
				break
			}
			stepSpan := j.spans.begin("app.step", name, iterSpan)
			tc.parent = stepSpan
			gosa, err := s.Step(comm)
			stepSpan.end()
			iterSpan.end()
			if err != nil {
				continue // a failure notice; the next Loop recovers
			}
			res.Residual = gosa
			if it >= sz.Warm {
				res.Iter = append(res.Iter, time.Since(t1))
			}
			// Every rank waits for rank 0 at the next step's allreduce,
			// so the job is longer by just the time of these sweeps.
			if it >= sz.Warm && it%probeEvery == probeEvery/2 {
				sp := j.spans.begin("bench.refsweep", name, root)
				d := refSweep()
				sp.end()
				probes = append(probes, d)
				probed += d
			}
		}
		fin := j.spans.begin("core.finalize", name, root)
		defer fin.end()
		return env.Finalize()
	})
	done := time.Now()
	root.end()
	if res.WarmDone.IsZero() {
		res.WarmDone = done
	}
	res.Wall = done.Sub(res.WarmDone) - probed
	res.Scale, res.ScaleSum = 1, 1
	if len(probes) > 0 {
		sort.Slice(probes, func(a, b int) bool { return probes[a] < probes[b] })
		res.Scale = refScale(probes[len(probes)/2])
		res.ScaleSum = refScale(probed / time.Duration(len(probes)))
	}
	return res
}

// timedComm wraps rank 0's communicator with spans. It implements
// himeno.Comm, and the Send and Recv the solver's edge ranks use.
type timedComm struct {
	c      *fmi.Comm
	log    *spanLog
	job    string
	parent *spanRef
}

func (t *timedComm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, error) {
	sp := t.log.begin("core.sendrecv", t.job, t.parent)
	defer sp.end()
	return t.c.Sendrecv(dst, sendTag, data, src, recvTag)
}

func (t *timedComm) Send(dst, tag int, data []byte) error {
	sp := t.log.begin("core.sendrecv", t.job, t.parent)
	defer sp.end()
	return t.c.Send(dst, tag, data)
}

func (t *timedComm) Recv(src, tag int) ([]byte, int, error) {
	sp := t.log.begin("core.sendrecv", t.job, t.parent)
	defer sp.end()
	return t.c.Recv(src, tag)
}

func (t *timedComm) Allreduce(data []byte, op core.Op) ([]byte, error) {
	sp := t.log.begin("core.allreduce", t.job, t.parent)
	defer sp.end()
	return t.c.Allreduce(data, op)
}

// probeEvery is the number of iterations between rank 0's sweeps of the
// reference kernel.
const probeEvery = 4

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reference is the failure-free, checkpoint-free solution every later
// job must reproduce bit for bit. It is part of set-up: the parent
// times it and uses the job's scale.
func (j *job) reference() {
	res := j.runHimeno("himeno-ref", j.himenoConfig(1<<30, nil))
	j.out.Scale = res.ScaleSum
	ok := res.Err == nil && !math.IsNaN(res.Residual) && res.Residual > 0
	j.check(ok, "himeno reference: err %v, residual %v", res.Err, res.Residual)
	j.out.Ref = strconv.FormatUint(math.Float64bits(res.Residual), 16)
}

// verify counts the job as one operation: it failed if it returned an
// error, did not recover exactly the scripted kills, or ended on a
// residual that differs from the reference in any bit.
func (j *job) verify(name string, res himenoResult, kills int) bool {
	got := strconv.FormatUint(math.Float64bits(res.Residual), 16)
	switch {
	case res.Err != nil:
		j.check(false, "%s: %v", name, res.Err)
	case got != j.req.Ref:
		j.check(false, "%s: residual bits %s, failure-free reference %s", name, got, j.req.Ref)
	case res.Report.FailuresInjected != kills || res.Report.Recoveries != kills:
		j.check(false, "%s: %d kills scripted, %d injected, %d recoveries", name, kills, res.Report.FailuresInjected, res.Report.Recoveries)
	default:
		j.check(true, "")
		return true
	}
	return false
}

// ckptJob is one failure-free checkpointing job.
func (j *job) ckptJob() {
	const name = "himeno-ckpt"
	res := j.runHimeno(name, j.himenoConfig(ckptInterval, nil))
	j.firstSample(res.WarmDone, res.ScaleSum)
	if !j.verify(name, res, 0) {
		return
	}
	wall := res.ScaleSum * res.Wall.Seconds()
	j.timed("wall_s", res.Wall.Seconds(), res.ScaleSum)
	for _, d := range res.Iter {
		j.timed("iter_ms", ms(d), res.Scale)
	}
	for _, d := range res.Ckpt {
		j.timed("ckpt_ms", ms(d), res.Scale)
	}
	if j.spans != nil {
		j.sample("_wall_traced_s", wall)
		j.appBudget(name, res)
	} else {
		j.sample("_wall_untraced_s", wall)
	}
}

// failJob is the same job under a seeded kill script.
func (j *job) failJob() {
	name := "himeno-fail-" + j.suite.Recovery
	script := j.killScript()
	res := j.runHimeno(name, j.himenoConfig(ckptInterval, script))
	j.firstSample(res.WarmDone, res.ScaleSum)
	if !j.verify(name, res, len(script)) {
		return
	}
	j.timed("wall_fail_s", res.Wall.Seconds(), res.ScaleSum)
	if n := res.Report.Stats.Recoveries; n > 0 {
		j.timed("recovery_ms", ms(res.Report.Stats.RecoveryTime)/float64(n), res.ScaleSum)
	}
	if j.spans != nil {
		j.recoveryPhases(res, len(script))
	}
}

func describeSizes(sz sizes) string {
	return fmt.Sprintf("Himeno %dx%dx%d, %d iterations per job, checkpoint every %d", sz.NX, sz.NY, sz.NZ, sz.Iters, ckptInterval)
}
