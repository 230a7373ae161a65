package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; spans inside the program are a later change. They
// stay in memory and are written out when the traced job ends. A nil
// *spanLog records nothing, so the untraced run pays one nil check per
// call site.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Job    string `json:"job"`    // spans of one job share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

type spanRef struct {
	log *spanLog
	id  int
}

func (l *spanLog) begin(name, job string, parent *spanRef) *spanRef {
	if l == nil {
		return nil
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	sp := span{ID: id, Job: job, Name: name, Start: now}
	if parent != nil {
		sp.Parent = parent.id
	}
	l.spans = append(l.spans, sp)
	return &spanRef{log: l, id: id}
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Since(s.log.t0).Nanoseconds()
	s.log.mu.Lock()
	s.log.spans[s.id-1].End = now
	s.log.mu.Unlock()
}

// rename changes an open span's name, for calls whose kind is known
// only once they return.
func (s *spanRef) rename(name string) {
	if s == nil {
		return
	}
	s.log.mu.Lock()
	s.log.spans[s.id-1].Name = name
	s.log.mu.Unlock()
}

// selfTimes returns, per span name within job, the summed self time:
// each span's duration minus the part its child spans cover. Children
// of one parent never overlap here (each rank's calls are sequential).
func (l *spanLog) selfTimes(job string) (self map[string]time.Duration, count map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := make([]int64, len(l.spans)+1)
	for _, sp := range l.spans {
		if sp.Parent != 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for _, sp := range l.spans {
		if sp.Job != job {
			continue
		}
		self[sp.Name] += time.Duration(sp.End - sp.Start - covered[sp.ID])
		count[sp.Name]++
	}
	return self, count
}

// durations returns every duration of the spans called name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, sp := range l.spans {
		if sp.Name == name {
			out = append(out, time.Duration(sp.End-sp.Start))
		}
	}
	return out
}

// spansFile is where the traced run's spans end up.
func spansFile(dir string) string { return filepath.Join(dir, "spans.jsonl") }

// appendTo adds the spans as JSON Lines to dir's span file. The jobs of
// a traced run execute one after another, each appending its own; span
// ids are per job.
func (l *spanLog) appendTo(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(spansFile(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
