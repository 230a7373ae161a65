package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"fmi"
	"fmi/internal/trace"
)

// The traced run gives the per-layer metrics: the micro-drivers, and
// replays of the Himeno stages with spans around every call into a
// layer and the runtime's recovery timeline switched on. End-to-end
// numbers never come from it.

// traced is the parent's side: it sends out the traced jobs.
func (r *run) traced(budget time.Duration) error {
	if err := os.RemoveAll(spansFile(r.out)); err != nil {
		return err
	}
	if _, err := r.do(jobRequest{Kind: "micro"}); err != nil {
		return err
	}
	refOut, err := r.do(jobRequest{Kind: "ref"})
	if err != nil {
		return err
	}
	// An untraced checkpointing job before the traced ones and one
	// after price the tracing itself.
	if _, err := r.do(jobRequest{Kind: "ckpt", Index: -1, Ref: refOut.Ref}); err != nil {
		return err
	}
	if err := r.stage("ckpt", scale(budget, 0.15), refOut.Ref); err != nil {
		return err
	}
	if _, err := r.do(jobRequest{Kind: "ckpt", Index: -2, Ref: refOut.Ref}); err != nil {
		return err
	}
	if err := r.stage("fail", scale(budget, 0.25), refOut.Ref); err != nil {
		return err
	}
	if r.suite.Recovery != "local" {
		// The replay metrics exist under local recovery only; they come
		// from one such job on this workload's transport.
		if _, err := r.do(jobRequest{Kind: "fail", Recovery: "local", Keep: "msglog.", Ref: refOut.Ref, Traced: true}); err != nil {
			return err
		}
	}
	if _, err := r.do(jobRequest{Kind: "replica"}); err != nil {
		return err
	}
	if traced, plain := r.hidden["_wall_traced_s"], r.hidden["_wall_untraced_s"]; len(traced) > 0 && len(plain) > 0 {
		r.sample("trace.overhead_pct", 100*(median(traced)/median(plain)-1))
	}
	// One reconciliation line per traced stage.
	if cov := r.series["bench.span_coverage_pct"]; len(cov) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("himeno-ckpt: self times of rank 0's spans sum to %.1f%% of the job's wall; the residual, %.1f ms per job, is launch, grid set-up and teardown",
			median(cov), median(r.hidden["_uncovered_ms"])))
	}
	if total := r.hidden["_failure_to_running_ms"]; len(total) > 0 {
		r.notes = append(r.notes, fmt.Sprintf("himeno-fail-%s: spare_alloc + respawn + rebuild = %.2f ms from failure to running again; recovery_ms as the application sees it, from rank 0 entering Loop, is %.2f ms; detect + rank 0's notified-to-running explains all but %.2f ms of the former (rank skew)",
			r.suite.Recovery, median(total), median(r.hidden["_app_recovery_ms"]), median(r.series["runtime.recovery_residual_ms"])))
	}
	return nil
}

// appBudget turns the traced checkpointing job's spans into the
// application's time budget on rank 0, per iteration: where an
// iteration's time goes, and the share no FMI change can move.
func (j *job) appBudget(name string, res himenoResult) {
	self, count := j.spans.selfTimes(name)
	iters := float64(count["app.step"])
	if iters == 0 {
		return
	}
	j.sample("core.sendrecv_ms", ms(self["core.sendrecv"])/iters)
	j.sample("core.allreduce_ms", ms(self["core.allreduce"])/iters)
	j.sample("himeno.compute_ms", ms(self["app.step"])/iters)
	for _, d := range j.spans.durations("core.loop") {
		j.sample("core.loop_nockpt_us", float64(d)/float64(time.Microsecond))
	}
	for _, d := range j.spans.durations("core.loop_ckpt") {
		j.sample("core.loop_ckpt_ms", ms(d))
	}
	var covered, wall time.Duration
	for n, d := range self {
		if n == "job" {
			wall = d
		} else {
			covered += d
		}
	}
	wall += covered // the root's self time is what its children leave
	if wall > 0 {
		j.sample("bench.span_coverage_pct", 100*float64(covered)/float64(wall))
		j.sample("_uncovered_ms", ms(wall-covered))
	}
	var delivered uint64
	for _, c := range res.Report.Stats.Matcher {
		delivered += c.Delivered
	}
	j.sample("transport.delivered_per_iter", float64(delivered)/float64(j.sz.Iters))
}

// recoveryPhases splits each scripted kill's recovery into phases from
// the runtime's timeline. Per kill, with e the epoch the kill opens:
//
//	detect         node-failed → first rank notified
//	notify_spread  first → last rank notified
//	spare_alloc    node-failed → spare-allocated
//	respawn        spare-allocated → the replacement's "H1 bootstrapping"
//	rebuild        the replacement's "H1 bootstrapping" → last rank "H3 running"
//	replay         first replay-start → last replay-done (local recovery)
//
// spare_alloc + respawn + rebuild is exactly failure to running again.
// The application-side figure, recovery_ms, starts later: when rank 0,
// notified, next enters Loop. The residual states the difference.
func (j *job) recoveryPhases(res himenoResult, kills int) {
	type kill struct {
		failed, spare, h1, lastH3 time.Time
		firstNote, lastNote       time.Time
		replayStart, replayDone   time.Time
		rank0Note, rank0H3        time.Time
		respawned                 map[int]bool
	}
	byEpoch := map[uint32]*kill{}
	at := func(e uint32) *kill {
		k := byEpoch[e]
		if k == nil {
			k = &kill{respawned: map[int]bool{}}
			byEpoch[e] = k
		}
		return k
	}
	first := func(t *time.Time, v time.Time) {
		if t.IsZero() || v.Before(*t) {
			*t = v
		}
	}
	last := func(t *time.Time, v time.Time) {
		if v.After(*t) {
			*t = v
		}
	}
	for _, ev := range res.Report.Timeline {
		switch ev.Kind {
		case trace.KindNodeFailed:
			first(&at(ev.Epoch+1).failed, ev.At) // stamped with the epoch the failure ends
		case trace.KindNotified:
			k := at(ev.Epoch + 1)
			first(&k.firstNote, ev.At)
			last(&k.lastNote, ev.At)
			if ev.Rank == 0 {
				first(&k.rank0Note, ev.At)
			}
		case trace.KindSpareAlloc:
			first(&at(ev.Epoch).spare, ev.At)
		case trace.KindRespawn:
			at(ev.Epoch).respawned[ev.Rank] = true
		case trace.KindState:
			if ev.Epoch == 0 {
				continue
			}
			k := at(ev.Epoch)
			switch ev.Note {
			case "H1 bootstrapping":
				if k.respawned[ev.Rank] {
					first(&k.h1, ev.At)
				}
			case "H3 running":
				last(&k.lastH3, ev.At)
				if ev.Rank == 0 {
					first(&k.rank0H3, ev.At)
				}
			}
		case trace.KindReplayStart:
			first(&at(ev.Epoch).replayStart, ev.At)
		case trace.KindReplayDone:
			last(&at(ev.Epoch).replayDone, ev.At)
		}
	}
	local := j.suite.Recovery == "local"
	span := func(name string, from, to time.Time) float64 {
		if from.IsZero() || to.IsZero() {
			return 0
		}
		d := ms(to.Sub(from))
		j.sample(name, d)
		return d
	}
	var total, seen []float64
	for _, k := range byEpoch {
		if k.failed.IsZero() || k.lastH3.IsZero() || k.h1.IsZero() {
			continue // not a scripted kill's epoch
		}
		detect := span("runtime.detect_ms", k.failed, k.firstNote)
		span("overlay.notify_spread_ms", k.firstNote, k.lastNote)
		sum := span("cluster.spare_alloc_ms", k.failed, k.spare)
		sum += span("runtime.respawn_ms", k.spare, k.h1)
		sum += span("core.rebuild_ms", k.h1, k.lastH3)
		if local {
			span("msglog.replay_ms", k.replayStart, k.replayDone)
		}
		rec := span("runtime.recovery_ms", k.rank0Note, k.rank0H3)
		total = append(total, sum)
		seen = append(seen, detect+rec)
	}
	if len(total) == 0 {
		return
	}
	if rec := append([]float64(nil), j.out.Samples["runtime.recovery_ms"]...); len(rec) > 0 {
		sort.Float64s(rec)
		j.sample("runtime.recovery_p90_ms", rec[min(len(rec)*9/10, len(rec)-1)])
	}
	st := res.Report.Stats
	if st.Restores > 0 {
		j.sample("core.restore_ms", ms(st.RestoreTime)/float64(st.Restores))
	}
	j.sample("core.lost_iters_per_failure", float64(st.LostIterations)/float64(kills))
	var dropped, dups uint64
	for _, c := range st.Matcher {
		dropped += c.Dropped
		dups += c.DupSuppressed
	}
	j.sample("transport.stale_dropped", float64(dropped)/float64(kills))
	j.sample("transport.dup_suppressed", float64(dups)/float64(kills))
	if local {
		j.sample("msglog.replayed_msgs_per_failure", float64(st.ReplayedMsgs)/float64(kills))
		for _, ev := range res.Report.Timeline {
			var ents, held, id int
			if ev.Kind != trace.KindMsgLogged {
				continue
			}
			if n, _ := fmt.Sscanf(ev.Note, "log holds %d entries (%d B) at checkpoint %d", &ents, &held, &id); n == 3 && id > 0 {
				j.sample("msglog.log_bytes_per_iter", float64(held)/ckptInterval)
			}
		}
	}
	// Reconcile with the application-side recovery time of this job.
	if st.Recoveries > 0 {
		j.sample("runtime.recovery_residual_ms", median(total)-median(seen))
		j.sample("_failure_to_running_ms", median(total))
		j.sample("_app_recovery_ms", ms(st.RecoveryTime)/float64(st.Recoveries))
	}
}

// replicaJob is informational and never gating: tier-1's replica cells
// hang or return wrong sums at HEAD. A small allreduce job runs
// failure-free under global and under replica recovery, then under
// replica with one primary kill; a run that errs, times out, computes a
// wrong sum or does not mask the kill counts as failed here and
// nowhere else.
func (j *job) replicaJob() {
	const iters, attempts = 40, 3
	runOnce := func(recovery string, kill bool) (time.Duration, *fmi.Report, bool) {
		cfg := baseConfig(j.suite)
		cfg.Recovery = recovery
		cfg.ProcsPerNode, cfg.CheckpointInterval = 1, ckptInterval
		cfg.Timeout = 3 * time.Second // a wedged replica run must not stall the benchmark
		cfg.TraceTo = io.Discard      // makes the runtime return its timeline
		if kill {
			cfg.SpareNodes = 2
			cfg.Faults = &fmi.FaultPlan{Script: []fmi.Fault{{AfterLoop: iters / 2, Node: -1, Rank: 1 + j.rng.Intn(ranks-1)}}}
		}
		var wrong atomic.Bool
		start := time.Now()
		rep, err := fmi.Run(cfg, func(env *fmi.Env) error {
			state := make([]byte, 8)
			for {
				n := env.Loop(state)
				if n >= iters {
					break
				}
				out, err := fmi.AllreduceInt64(env.World(), fmi.SumInt64(), int64(n+env.Rank()))
				if err != nil {
					continue
				}
				if out[0] != int64(ranks*n+ranks*(ranks-1)/2) {
					wrong.Store(true)
				}
			}
			return env.Finalize()
		})
		return time.Since(start), rep, err == nil && !wrong.Load()
	}
	var global, replica []float64
	failed, attempted := 0, 0
	for a := 0; a < attempts; a++ {
		if d, _, ok := runOnce("global", false); ok {
			global = append(global, d.Seconds())
		}
		if d, _, ok := runOnce("replica", false); ok {
			replica = append(replica, d.Seconds())
		} else {
			failed++
		}
		attempted += 2
		_, rep, ok := runOnce("replica", true)
		var promote time.Duration
		if ok {
			var failedAt time.Time
			for _, ev := range rep.Timeline {
				if ev.Kind == trace.KindNodeFailed && failedAt.IsZero() {
					failedAt = ev.At
				}
				if ev.Kind == trace.KindShadowPromote && !failedAt.IsZero() && promote == 0 {
					promote = ev.At.Sub(failedAt)
				}
			}
		}
		if ok && promote > 0 && rep.Stats.Recoveries == 0 {
			j.sample("replica.promote_us", float64(promote)/float64(time.Microsecond))
		} else {
			failed++
		}
	}
	if len(global) > 0 && len(replica) > 0 {
		j.sample("replica.ff_overhead_pct", 100*(median(replica)/median(global)-1))
	} else {
		j.sample("replica.ff_overhead_pct", 0)
	}
	if len(j.out.Samples["replica.promote_us"]) == 0 {
		j.sample("replica.promote_us", 0)
	}
	j.sample("replica.failed_runs", float64(failed))
	j.note("replica (informational): %d of %d replica runs failed", failed, attempted)
}
