package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Every fmi.Run job of the benchmark runs in a process of its own.
// One process running job after job does not stay in one state: the
// runtime leaves goroutines and their buffers behind at each job's
// end, the heap grows, and once garbage collections come often enough
// to empty the buffer arena (sync.Pool, cleared by the collector) the
// arena misses, allocates more, and collections come more often still;
// iterations then take twice as long for the rest of the process's
// life. A fresh process per job makes every job start from the same
// state, and is also what makes set-up a quantity measured several
// times per run.

// jobRequest describes one job; the parent sends it to the child on
// standard input.
type jobRequest struct {
	Suite    string        `json:"suite"`
	Kind     string        `json:"kind"`               // ref, msg, ckpt, fail, micro, replica
	Recovery string        `json:"recovery,omitempty"` // protocol of a fail job, when not the suite's
	Seed     int64         `json:"seed"`
	Index    int           `json:"index"` // which job of its kind in the run; part of its seed
	Budget   time.Duration `json:"budget_ns"`
	Smoke    bool          `json:"smoke"`
	Traced   bool          `json:"traced"`
	Keep     string        `json:"keep,omitempty"` // when set, only samples whose names start with it are kept
	Ref      string        `json:"ref,omitempty"`  // reference residual, float64 bits in hex
	Spawned  int64         `json:"spawned_unix_ns"`
	Out      string        `json:"out"`
}

// jobOutput is what a job measured; the child prints it as one line.
// Sample names that start with "_" are for the parent's own sums and
// are not metrics.
type jobOutput struct {
	Samples   map[string][]float64 `json:"samples"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	Setup     float64              `json:"setup_s"` // spawn to first timed sample, as measured
	Scale     float64              `json:"scale"`   // the factor that puts the set-up time (and a Himeno job's wall) on the reference clock
	Ref       string               `json:"ref,omitempty"`
}

// job is the state of one executing job.
type job struct {
	req     jobRequest
	suite   suite
	sz      sizes
	rng     *rand.Rand // the job's inputs: payload bytes, kill loop ids, victim ranks
	spans   *spanLog   // nil unless traced
	spawned time.Time

	mu  sync.Mutex
	out jobOutput
}

// kinds lists the job kinds: what each runs, and the salt that keeps
// the input streams of a run's jobs apart.
var kinds = map[string]struct {
	salt int64
	run  func(*job)
}{
	"ref":     {1, (*job).reference},
	"msg":     {2, (*job).msgJob},
	"ckpt":    {3, (*job).ckptJob},
	"fail":    {4, (*job).failJob},
	"micro":   {5, (*job).microJob},
	"replica": {6, (*job).replicaJob},
}

// execute runs one job in this process.
func execute(req jobRequest) (*jobOutput, error) {
	s, ok := suiteByName(req.Suite)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", req.Suite)
	}
	kind, ok := kinds[req.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown job kind %q", req.Kind)
	}
	if req.Recovery != "" {
		s.Recovery = req.Recovery
	}
	j := &job{
		req: req, suite: s, sz: fullSizes,
		rng:     rand.New(rand.NewSource(req.Seed*1_000_003 + kind.salt*10_007 + int64(req.Index))),
		spawned: time.Unix(0, req.Spawned),
		out:     jobOutput{Samples: map[string][]float64{}},
	}
	if req.Smoke {
		j.sz = smokeSizes
	}
	if req.Traced {
		j.spans = newSpanLog()
	}
	kind.run(j)
	if j.spans != nil {
		if err := j.spans.appendTo(req.Out); err != nil {
			return nil, err
		}
	}
	return &j.out, nil
}

func (j *job) sample(name string, v float64) {
	if !strings.HasPrefix(name, j.req.Keep) {
		return
	}
	j.mu.Lock()
	j.out.Samples[name] = append(j.out.Samples[name], v)
	j.mu.Unlock()
}

// plainPrefix names the hidden series that holds an end-to-end
// metric's samples as measured, before the reference clock.
const plainPrefix = "_plain."

// timed records a sample of an end-to-end metric: on the reference
// clock under the metric's name, and as measured beside it.
func (j *job) timed(name string, plain, scale float64) {
	j.sample(name, onClock(name, plain, scale))
	j.sample(plainPrefix+name, plain)
}

// tally counts ops verified operations of which bad gave a wrong
// result; any bad one makes the run incorrect.
func (j *job) tally(ops, bad int, format string, args ...any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.out.Attempted += ops
	j.out.Failed += bad
	if bad > 0 && len(j.out.Failures) < 10 {
		j.out.Failures = append(j.out.Failures, fmt.Sprintf(format, args...))
	}
}

func (j *job) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	j.tally(1, bad, format, args...)
}

func (j *job) note(format string, args ...any) {
	j.mu.Lock()
	j.out.Notes = append(j.out.Notes, fmt.Sprintf(format, args...))
	j.mu.Unlock()
}

// firstSample marks the end of the job's set-up; scale puts it on the
// reference clock.
func (j *job) firstSample(at time.Time, scale float64) {
	j.out.Setup = at.Sub(j.spawned).Seconds()
	j.out.Scale = scale
}

// An executor runs a job somewhere and returns what it measured.
type executor func(jobRequest) (*jobOutput, error)

// inProcess runs the job in the calling process: the test's way, good
// for smoke sizes only.
func inProcess(req jobRequest) (*jobOutput, error) {
	req.Spawned = time.Now().UnixNano()
	return execute(req)
}

// subprocess runs the job in a fresh copy of this program and waits
// for it to end.
func subprocess(req jobRequest) (*jobOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	req.Spawned = time.Now().UnixNano()
	in, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	body, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s job of %s: %w", req.Kind, req.Suite, err)
	}
	var out jobOutput
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("%s job of %s: reading its result: %w", req.Kind, req.Suite, err)
	}
	return &out, nil
}

// childMain is the other end of subprocess.
func childMain() error {
	var req jobRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		return fmt.Errorf("child: reading the job: %w", err)
	}
	out, err := execute(req)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
