package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"fmi"
)

// The messaging stage is the paper's Table III on the full stack: a
// failure-free job, 4 ranks on 2 nodes, so rank 0↔1 is co-located (the
// SPSC ring path on the chan transport) and 0↔2 crosses nodes. Rank 0
// drives; all load is closed-loop. A sample is the mean of a fixed-size
// batch, so it costs two clock reads however short the operation is,
// put on the reference clock (refclock.go) by the probes around its
// pass.

type msgKind int

const (
	pingPong msgKind = iota
	allreduce
)

type msgPhase struct {
	Metric string
	Kind   msgKind
	Peer   int // ping-pong partner of rank 0
	Bytes  int
	// conv turns a batch's mean seconds per operation into the metric.
	conv func(secPerOp float64) float64
}

func usec(s float64) float64 { return s * 1e6 }

func (j *job) msgPhases() []msgPhase {
	big := j.sz.BigBytes
	return []msgPhase{
		{"rtt_8B_us", pingPong, 2, 8, usec},
		{"rtt_64KiB_us", pingPong, 2, j.sz.MidBytes, usec},
		{"rtt_8B_colo_us", pingPong, 1, 8, usec},
		// One-way bytes over one-way time, in 10^6 bytes per second.
		{"bw_8MiB_MBps", pingPong, 2, big,
			func(s float64) float64 { return float64(big) / (s / 2) / 1e6 }},
		{"allreduce_8B_us", allreduce, 0, 8, usec},
	}
}

// msgConfig places 2 ranks per node and never checkpoints after the
// first Loop, so ckpt, erasure and recovery do no work. Under local
// recovery every batch boundary checkpoints the 8-byte state instead:
// that is what trims the sender logs, outside the timed region.
func (j *job) msgConfig() fmi.Config {
	cfg := baseConfig(j.suite)
	cfg.ProcsPerNode = 2
	cfg.XORGroupSize = 2
	cfg.CheckpointInterval = 1 << 30
	if j.suite.Recovery == "local" {
		cfg.CheckpointInterval = 1
	}
	return cfg
}

const (
	tagPing = 7
	ctlStop = 0
)

// msgJob runs one messaging job for about the job's budget and samples
// every phase's metric.
func (j *job) msgJob() {
	j.runMsg(j.msgPhases(), j.req.Budget, true)
}

// runMsg runs the phases for about budget. With refClock set the
// samples and the job's set-up time go on the reference clock.
func (j *job) runMsg(phases []msgPhase, budget time.Duration, refClock bool) {
	payloads := make([][]byte, len(phases))
	for i, ph := range phases {
		if ph.Kind == pingPong {
			payloads[i] = make([]byte, ph.Bytes)
			j.rng.Read(payloads[i]) // never fails on a *rand.Rand
		}
	}
	var atStart time.Duration
	if refClock {
		atStart = refProbe()
	}
	deadline := time.Now().Add(budget)
	_, err := fmi.Run(j.msgConfig(), func(env *fmi.Env) error {
		m := &msgRank{j: j, env: env, state: make([]byte, 8), probe: atStart}
		for i, ph := range phases {
			d := &msgDriver{ph: ph, payload: payloads[i]}
			if ph.Kind == allreduce {
				d.vec = fmi.Int64Bytes(reduceVector(env.Rank(), ph.Bytes/8))
			}
			m.drivers = append(m.drivers, d)
		}
		var err error
		if env.Rank() == 0 {
			err = m.lead(deadline)
		} else {
			err = m.follow()
		}
		if err != nil {
			return err
		}
		return env.Finalize()
	})
	j.check(err == nil, "messaging job: %v", err)
}

// msgRank is one rank's side of the messaging job.
type msgRank struct {
	j       *job
	env     *fmi.Env
	state   []byte
	drivers []*msgDriver
	probe   time.Duration // rank 0: the latest reference probe; 0 when the job is not on the reference clock
}

// msgDriver is one phase on one rank.
type msgDriver struct {
	ph      msgPhase
	payload []byte // rank 0 sends it, the partner echoes it
	vec     []byte // this rank's allreduce contribution
	opIndex int64  // allreduces done so far in this phase, the same on every rank
	n       int    // rank 0: the phase's batch size
}

// follow is every rank but 0: do the batch rank 0 announces, until it
// announces the end.
func (m *msgRank) follow() error {
	for {
		phase, n, err := m.control(0, ctlStop)
		if err != nil || n == ctlStop {
			return err
		}
		if _, err := m.batch(m.drivers[phase], n, false); err != nil {
			return err
		}
	}
}

// lead is rank 0. It first prepares every phase: one operation verified
// in full, the batch sized so that it takes the target time, and a
// warm-up batch at that size. Then it makes passes over the phases,
// one timed batch each, until the deadline, so that every metric is
// sampled over the whole job; then one more operation per phase
// verified in full. Only the passes are timed. The reference kernel
// runs between passes, while the other ranks wait parked at the batch
// boundary, and a pass's samples are scaled by the probes on either
// side of it.
func (m *msgRank) lead(deadline time.Time) error {
	do := func(phase, n int, verify bool) (time.Duration, error) {
		_, _, err := m.control(phase, n)
		var el time.Duration
		if err == nil {
			el, err = m.batch(m.drivers[phase], n, verify)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", m.drivers[phase].ph.Metric, err)
		}
		return el, err
	}
	for i, d := range m.drivers {
		if _, err := do(i, 1, true); err != nil {
			return err
		}
		d.n = 4
		for done := false; !done; {
			el, err := do(i, d.n, false)
			if err != nil {
				return err
			}
			d.n, done = sizeBatch(d.n, el, m.j.sz.BatchTarget)
		}
		if _, err := do(i, d.n, false); err != nil {
			return err
		}
	}
	m.j.firstSample(time.Now(), m.reprobe())
	els := make([]time.Duration, len(m.drivers))
	for pass := 0; pass < m.j.sz.MinPasses || time.Now().Before(deadline); pass++ {
		for i, d := range m.drivers {
			el, err := do(i, d.n, false)
			if err != nil {
				return err
			}
			els[i] = el
		}
		scale := m.reprobe()
		for i, d := range m.drivers {
			sec := els[i].Seconds() / float64(d.n)
			m.j.sample(d.ph.Metric, d.ph.conv(onClock(d.ph.Metric, sec, scale)))
			if m.probe > 0 {
				m.j.sample(plainPrefix+d.ph.Metric, d.ph.conv(sec))
			}
		}
	}
	for i := range m.drivers {
		if _, err := do(i, 1, true); err != nil {
			return err
		}
	}
	_, _, err := m.control(0, ctlStop)
	return err
}

// reprobe runs the reference kernel again and returns the factor that
// puts the time since the previous probe on the reference clock: 1 when
// the job is not on it.
func (m *msgRank) reprobe() float64 {
	if m.probe == 0 {
		return 1
	}
	before := m.probe
	m.probe = refProbe()
	return refScale((before + m.probe) / 2)
}

// sizeBatch is one step of sizing a batch to a target duration: given
// that n operations took el, it returns n and true if that is within a
// fifth of the target, and otherwise a larger n to try, at most 16
// times larger.
func sizeBatch(n int, el, target time.Duration) (int, bool) {
	if el >= target*8/10 {
		return n, true
	}
	grow := 16.0
	if el > 0 {
		grow = min(grow, 1.1*float64(target)/float64(el))
	}
	return int(float64(n)*max(grow, 1.25)) + 1, false
}

// control is the batch boundary: every rank calls Loop, then rank 0's
// choice of phase and batch size goes to everyone.
func (m *msgRank) control(phase, n int) (int, int, error) {
	m.env.Loop(m.state)
	var word [8]byte
	binary.LittleEndian.PutUint32(word[:], uint32(phase))
	binary.LittleEndian.PutUint32(word[4:], uint32(n))
	out, err := m.env.World().Bcast(0, word[:])
	if err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint32(out)), int(binary.LittleEndian.Uint32(out[4:])), nil
}

// batch performs n operations of the phase and returns their duration.
// Every echo's length and every allreduce's two stamped elements are
// checked; with verify set the results are compared in full, the echo
// byte for byte and the allreduce against its closed form.
func (m *msgRank) batch(d *msgDriver, n int, verify bool) (time.Duration, error) {
	w := m.env.World()
	me := m.env.Rank()
	ops, bad := 0, 0
	// Tallied once the clock has stopped: the shared counters take a lock.
	defer func() { m.j.tally(ops, bad, "%s: %d wrong result(s) on rank %d", d.ph.Metric, bad, me) }()
	start := time.Now()
	switch {
	case d.ph.Kind == allreduce:
		for i := 0; i < n; i++ {
			d.opIndex++
			stamp(d.vec, int64(me+1)*d.opIndex)
			out, err := w.Allreduce(d.vec, fmi.SumInt64())
			if err != nil {
				return 0, err
			}
			ops++
			if !reduceOK(out, d.opIndex, verify) {
				bad++
			}
		}
	case me == 0:
		for i := 0; i < n; i++ {
			if err := w.Send(d.ph.Peer, tagPing, d.payload); err != nil {
				return 0, err
			}
			echo, _, err := w.Recv(d.ph.Peer, tagPing)
			if err != nil {
				return 0, err
			}
			ops++
			if len(echo) != len(d.payload) || verify && !bytes.Equal(echo, d.payload) {
				bad++
			}
		}
	case me == d.ph.Peer:
		for i := 0; i < n; i++ {
			got, _, err := w.Recv(0, tagPing)
			if err != nil {
				return 0, err
			}
			if err := w.Send(0, tagPing, got); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// reduceVector is rank's contribution: (rank+1)·(j mod 1000 + 1) at
// index j, so the 4-rank sum there is 10·(j mod 1000 + 1). The first
// and last elements are re-stamped for each operation.
func reduceVector(rank, n int) []int64 {
	v := make([]int64, n)
	for j := range v {
		v[j] = int64(rank+1) * int64(j%1000+1)
	}
	return v
}

// stamp writes v into the first and last element, so that each
// operation's sum differs and a contribution delivered to the wrong
// operation shows.
func stamp(vec []byte, v int64) {
	binary.LittleEndian.PutUint64(vec, uint64(v))
	binary.LittleEndian.PutUint64(vec[len(vec)-8:], uint64(v))
}

// reduceOK checks an allreduce result against the closed form: always
// the two stamped elements, and every element when full is set.
func reduceOK(out []byte, op int64, full bool) bool {
	const rankSum = ranks * (ranks + 1) / 2
	n := len(out) / 8
	at := func(j int) int64 { return int64(binary.LittleEndian.Uint64(out[8*j:])) }
	if n == 0 || at(0) != rankSum*op || at(n-1) != rankSum*op {
		return false
	}
	return !full || closedForm(out, 1, n-1)
}

// closedForm checks elements lo..hi-1 of a summed reduceVector.
func closedForm(out []byte, lo, hi int) bool {
	const rankSum = ranks * (ranks + 1) / 2
	for j := lo; j < hi; j++ {
		if int64(binary.LittleEndian.Uint64(out[8*j:])) != rankSum*int64(j%1000+1) {
			return false
		}
	}
	return true
}
