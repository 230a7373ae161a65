// Package bufpool provides the size-classed buffer arena behind the
// runtime's zero-allocation hot paths: transport frame copies,
// collective packing, and checkpoint capture/parity buffers all draw
// from one shared Arena instead of calling make per message.
//
// The design follows the fasthttp/bytebufferpool discipline: buffers
// live in power-of-two size classes, each backed by a sync.Pool, and
// Get/Put recycle them across the whole job (every endpoint of a
// network shares the network's arena, so a frame released by its
// receiver is immediately reusable by any sender).
//
// Ownership contract. A buffer returned by Get is owned by the caller
// until it is handed off or released, and its contents are
// UNINITIALIZED — callers must overwrite the full length before
// reading. Exactly one of the following must eventually happen:
//
//   - Put(buf): the buffer returns to the arena and may be reused
//     immediately. The caller must not touch it afterwards.
//   - Detach(buf): ownership permanently leaves the arena economy.
//     The buffer is garbage-collected normally. The runtime now uses
//     it only for collective block-table results, which go to the
//     caller; application point-to-point payloads never enter the
//     arena (the transport's kept mode, transport.FlagKeep).
//
// Put also accepts foreign buffers (allocated by make elsewhere) as
// long as the caller owns them exclusively: they are adopted into the
// class their capacity fits. Never Put a sub-slice that aliases
// retained memory.
//
// A nil *Arena is valid and disables pooling: Get degrades to make,
// Put and Detach are no-ops. This is how fmi.Config.Pooling = off is
// implemented — one code path, two allocation behaviours.
//
// Debug mode (NewDebug) trades the sync.Pool backing for explicit
// free lists plus an outstanding-buffer table keyed by slice base
// pointer: every Get records its call site, Put/Detach clear it, a
// second Put of a pooled buffer panics (double release), and Leaks
// reports every buffer acquired but neither released nor detached —
// the harness behind the transport leak tests.
package bufpool

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits span 64 B to 64 MiB; requests outside
	// the span fall back to plain make (Put ignores them).
	minClassBits = 6
	maxClassBits = 26
	numClasses   = maxClassBits - minClassBits + 1
)

// classFor returns the smallest class whose buffers hold n bytes, or
// -1 when n is outside the pooled span.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for 1<<(minClassBits+c) < n {
		c++
	}
	return c
}

// classSize returns the buffer capacity of class c.
func classSize(c int) int { return 1 << (minClassBits + c) }

// putClassFor returns the largest class whose size fits within cap
// (a buffer may serve any Get up to its class size), or -1.
func putClassFor(capacity int) int {
	if capacity < 1<<minClassBits {
		return -1
	}
	c := numClasses - 1
	for classSize(c) > capacity {
		c--
	}
	return c
}

// wrapper boxes a slice header so sync.Pool traffics only in pointers
// (interface conversion of a pointer does not allocate; a bare []byte
// would box on every Put and defeat the zero-alloc goal).
type wrapper struct{ b []byte }

var wrapperPool = sync.Pool{New: func() any { return new(wrapper) }}

// Stats are the arena's lifetime counters.
type Stats struct {
	Gets   uint64 // Get calls served (pooled or not)
	Puts   uint64 // buffers returned to the arena
	Misses uint64 // Gets that had to allocate (empty class or unpoolable size)
}

// Leak describes one outstanding debug-mode buffer.
type Leak struct {
	Site string // file:line of the Get call
}

// Arena is a size-classed buffer pool. The zero value is NOT ready;
// use New or NewDebug. A nil *Arena disables pooling (see package
// comment).
type Arena struct {
	classes [numClasses]sync.Pool

	gets, puts, misses atomic.Uint64

	dbg *debugState // non-nil in debug mode
}

type debugState struct {
	mu          sync.Mutex
	free        [numClasses][][]byte
	outstanding map[*byte]string // base pointer -> Get site
	pooled      map[*byte]bool   // base pointer is currently in a free list
}

// New returns a production arena backed by sync.Pool classes.
func New() *Arena { return &Arena{} }

// NewDebug returns an arena with leak tracking: buffers are strongly
// referenced (no sync.Pool, so the GC never silently drops one) and
// every Get is charged to its call site until Put or Detach.
func NewDebug() *Arena {
	return &Arena{dbg: &debugState{
		outstanding: make(map[*byte]string),
		pooled:      make(map[*byte]bool),
	}}
}

// Get returns a buffer of length n with capacity at least n. The
// contents are uninitialized. On a nil arena (pooling disabled) it is
// exactly make([]byte, n).
func (a *Arena) Get(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	if n <= 0 {
		return nil
	}
	a.gets.Add(1)
	c := classFor(n)
	if c < 0 {
		a.misses.Add(1)
		return make([]byte, n)
	}
	if a.dbg != nil {
		return a.dbg.get(a, c, n)
	}
	if w, _ := a.classes[c].Get().(*wrapper); w != nil {
		b := w.b
		w.b = nil
		wrapperPool.Put(w)
		return b[:n]
	}
	a.misses.Add(1)
	return make([]byte, n, classSize(c))
}

// Put returns buf to the arena for reuse. The caller must own buf
// exclusively (no retained aliases anywhere) and must not use it
// afterwards. Buffers too small or too large to pool, and calls on a
// nil arena, are silently dropped to the GC.
func (a *Arena) Put(buf []byte) {
	if a == nil || cap(buf) == 0 {
		return
	}
	c := putClassFor(cap(buf))
	if c < 0 {
		return
	}
	a.puts.Add(1)
	buf = buf[:cap(buf)]
	if a.dbg != nil {
		a.dbg.put(buf, c)
		return
	}
	w := wrapperPool.Get().(*wrapper)
	w.b = buf
	a.classes[c].Put(w)
}

// Detach removes buf from leak tracking without pooling it: ownership
// has permanently left the arena economy (a payload handed to code
// that may retain it indefinitely). No-op outside debug mode.
func (a *Arena) Detach(buf []byte) {
	if a == nil || a.dbg == nil || cap(buf) == 0 {
		return
	}
	d := a.dbg
	d.mu.Lock()
	delete(d.outstanding, &buf[:1][0])
	d.mu.Unlock()
}

// Stats returns the lifetime counters.
func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return Stats{Gets: a.gets.Load(), Puts: a.puts.Load(), Misses: a.misses.Load()}
}

// Outstanding returns how many debug-mode buffers have been acquired
// but neither released nor detached (0 outside debug mode).
func (a *Arena) Outstanding() int {
	if a == nil || a.dbg == nil {
		return 0
	}
	a.dbg.mu.Lock()
	defer a.dbg.mu.Unlock()
	return len(a.dbg.outstanding)
}

// Leaks reports every outstanding debug-mode buffer with the call
// site that acquired it, sorted for stable test output.
func (a *Arena) Leaks() []Leak {
	if a == nil || a.dbg == nil {
		return nil
	}
	a.dbg.mu.Lock()
	defer a.dbg.mu.Unlock()
	var out []Leak
	for _, site := range a.dbg.outstanding {
		out = append(out, Leak{Site: site})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

func (d *debugState) get(a *Arena, c, n int) []byte {
	site := "unknown"
	if _, file, line, ok := runtime.Caller(2); ok {
		site = fmt.Sprintf("%s:%d", file, line)
	}
	d.mu.Lock()
	var b []byte
	if fl := d.free[c]; len(fl) > 0 {
		b = fl[len(fl)-1]
		d.free[c] = fl[:len(fl)-1]
	} else {
		a.misses.Add(1)
		b = make([]byte, classSize(c))
	}
	base := &b[0]
	delete(d.pooled, base)
	d.outstanding[base] = site
	d.mu.Unlock()
	return b[:n]
}

func (d *debugState) put(buf []byte, c int) {
	base := &buf[0]
	d.mu.Lock()
	if d.pooled[base] {
		d.mu.Unlock()
		panic(fmt.Sprintf("bufpool: double release of %d-byte buffer (acquired at %s)",
			cap(buf), d.outstanding[base]))
	}
	delete(d.outstanding, base)
	d.pooled[base] = true
	d.free[c] = append(d.free[c], buf)
	d.mu.Unlock()
}
