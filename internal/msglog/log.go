// Package msglog implements sender-based pessimistic message logging,
// the mechanism behind FMI's localized ("local") recovery mode. Every
// data-plane message a rank sends is assigned a per-(sender, receiver)
// sequence number and a copy is retained in the sender's volatile
// in-memory log. When a node fails, survivors do not roll back:
// respawned ranks restore their checkpoint shard and re-execute, with
// their receives satisfied by replaying the survivors' logs, while
// re-executed duplicate sends are suppressed at the receivers by the
// same sequence numbers (Dichev & Nikolopoulos; ReStore — see
// PAPERS.md). The log is bounded: once a checkpoint commits globally,
// entries every receiver has acknowledged are garbage collected.
//
// Payload copies live in chunks drawn from the job's buffer arena
// (bufpool): each destination's log is a FIFO of chunks, Record bumps
// the payload into the tail chunk's free space or takes a fresh chunk
// of max(64 KiB, n) bytes, and a chunk goes back to the arena once
// the trim point passes its last entry (or on Reset and Resize). A
// replay borrows the chunks between Pin and Unpin.
package msglog

import (
	"fmt"
	"sync"

	"fmi/internal/bufpool"
)

// chunkSize is the smallest arena buffer a destination's log takes:
// small payloads share one chunk by bump allocation, a larger payload
// gets a chunk of its own size.
const chunkSize = 64 << 10

// Entry is one logged message. Data is a private copy taken at Record
// time, so later mutation of the caller's buffer cannot corrupt a
// replay. It points into the log's chunk memory and stays valid until
// the entry is trimmed — or, for entries read between Pin and Unpin,
// until Unpin.
type Entry struct {
	Seq  uint64
	Ctx  uint32
	Tag  int32
	Kind byte
	Data []byte
}

// chunk is one arena buffer holding the payloads of consecutive
// entries to one destination.
type chunk struct {
	buf  []byte // payloads fill buf[:used]
	used int
	live int // entries stored here and not yet trimmed
}

// stream is the retained state for one destination.
type stream struct {
	ents   deque[Entry] // ascending Seq
	chunks deque[chunk] // the last one is the tail Record bumps into
}

// Log is one rank's send log: per-destination sequence counters plus
// the retained entries, ordered by ascending sequence number. All
// methods are safe for concurrent use (the trim runs asynchronously to
// the sending application thread).
type Log struct {
	mu      sync.Mutex
	n       int
	arena   *bufpool.Arena
	lastSeq []uint64 // last sequence number assigned per destination
	streams []stream
	bytes   int // payload bytes currently retained

	pins     int      // open Pin calls
	deferred [][]byte // chunks released while pinned, put back at the last Unpin
}

// New creates an empty log for a world of n ranks whose chunks are
// plain allocations.
func New(n int) *Log { return NewPooled(n, nil) }

// NewPooled creates an empty log for a world of n ranks whose chunks
// come from arena (nil: plain allocations, as bufpool defines it).
func NewPooled(n int, arena *bufpool.Arena) *Log {
	return &Log{n: n, arena: arena, lastSeq: make([]uint64, n), streams: make([]stream, n)}
}

// Record assigns the next sequence number for dst, retains a copy of
// the payload, and returns the assigned number (sequence numbers start
// at 1; 0 marks unsequenced control traffic).
func (l *Log) Record(dst int, ctx uint32, tag int32, kind byte, data []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastSeq[dst]++
	seq := l.lastSeq[dst]
	s := &l.streams[dst]
	var cp []byte
	if n := len(data); n > 0 {
		c := s.chunks.back()
		if c == nil || len(c.buf)-c.used < n {
			// The arena rounds up to its size class; the slack is
			// room for the payloads that follow.
			buf := l.arena.Get(max(chunkSize, n))
			s.chunks.push(chunk{buf: buf[:cap(buf)]})
			c = s.chunks.back()
		}
		cp = c.buf[c.used : c.used+n : c.used+n]
		c.used += n
		c.live++
		copy(cp, data)
	}
	s.ents.push(Entry{Seq: seq, Ctx: ctx, Tag: tag, Kind: kind, Data: cp})
	l.bytes += len(cp)
	return seq
}

// After returns the retained entries for dst with Seq > seq, in
// sequence order — exactly what a recovering receiver that has
// acknowledged seq still needs replayed. The entries' Data aliases the
// log's chunks: a caller that reads it while a Trim may run must hold
// a Pin.
func (l *Log) After(dst int, seq uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	ents := l.streams[dst].ents.live()
	i := 0
	for i < len(ents) && ents[i].Seq <= seq {
		i++
	}
	out := make([]Entry, len(ents)-i)
	copy(out, ents[i:])
	return out
}

// Pin keeps every chunk the log holds now in place until the matching
// Unpin: a chunk released meanwhile (by Trim, Reset or Resize) is set
// aside instead of going back to the arena, so entries read by After
// stay intact while they are being sent.
func (l *Log) Pin() {
	l.mu.Lock()
	l.pins++
	l.mu.Unlock()
}

// Unpin ends one Pin; the last one returns the chunks set aside.
func (l *Log) Unpin() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pins--; l.pins > 0 {
		return
	}
	for i, buf := range l.deferred {
		l.arena.Put(buf)
		l.deferred[i] = nil
	}
	l.deferred = l.deferred[:0]
}

// release returns one chunk to the arena, or sets it aside while the
// log is pinned. Caller holds l.mu.
func (l *Log) release(buf []byte) {
	if l.pins > 0 {
		l.deferred = append(l.deferred, buf)
		return
	}
	l.arena.Put(buf)
}

// drop releases everything retained for one destination. Caller holds
// l.mu.
func (l *Log) drop(s *stream) {
	for _, e := range s.ents.live() {
		l.bytes -= len(e.Data)
	}
	for _, c := range s.chunks.live() {
		l.release(c.buf)
	}
	s.ents.reset()
	s.chunks.reset()
}

// Trim garbage-collects entries every receiver has acknowledged:
// acked[dst] is the highest sequence number dst reported as part of
// its committed checkpoint state; entries at or below it can never be
// requested again, and a chunk goes back to the arena once its last
// entry is trimmed. Returns the number of entries and payload bytes
// released.
func (l *Log) Trim(acked []uint64) (entries, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for dst := 0; dst < l.n && dst < len(acked); dst++ {
		s, ack := &l.streams[dst], acked[dst]
		for s.ents.len() > 0 && s.ents.front().Seq <= ack {
			n := len(s.ents.pop().Data)
			bytes += n
			entries++
			// Payloads fill chunks in entry order, so the oldest
			// chunk holds the oldest payload.
			if n == 0 {
				continue
			}
			c := s.chunks.front()
			if c.live--; c.live == 0 {
				l.release(s.chunks.pop().buf)
			}
		}
	}
	l.bytes -= bytes
	return entries, bytes
}

// SendSeqs returns a copy of the last assigned sequence number per
// destination — part of the rank's checkpointed runtime state.
func (l *Log) SendSeqs() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, l.n)
	copy(out, l.lastSeq)
	return out
}

// RestoreSendSeqs adopts checkpointed counters (a respawned rank
// restoring from its rebuilt shard): re-executed sends then reproduce
// the original sequence numbers, so receivers that already consumed
// them suppress the duplicates. The counters may come from a
// checkpoint taken under a smaller membership view; the common prefix
// is adopted and counters for ranks beyond the old world start at 0.
func (l *Log) RestoreSendSeqs(seqs []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(seqs) > l.n {
		return fmt.Errorf("msglog: restoring %d counters into a log for %d ranks", len(seqs), l.n)
	}
	copy(l.lastSeq, seqs)
	for i := len(seqs); i < l.n; i++ {
		l.lastSeq[i] = 0
	}
	return nil
}

// Resize adapts the log to a new world size at a view-change fence.
// On grow, fresh destinations start with zero counters and empty
// logs; on shrink, entries, chunks and counters for retired ranks are
// dropped (nothing will ever request them again).
func (l *Log) Resize(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n == l.n {
		return
	}
	for dst := n; dst < l.n; dst++ {
		l.drop(&l.streams[dst])
	}
	seqs := make([]uint64, n)
	streams := make([]stream, n)
	copy(seqs, l.lastSeq)
	copy(streams, l.streams)
	l.n, l.lastSeq, l.streams = n, seqs, streams
}

// Reset drops all entries, returns every chunk to the arena (after
// the last Unpin, if pinned) and zeroes every counter — used when a
// local-mode run falls back to a global rollback (level-2 restore),
// after which every rank re-executes and regenerates all streams from
// scratch in lockstep, and at the rank's teardown, after which a Trim
// still in flight from the asynchronous checkpoint acknowledgement
// finds nothing to release.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.streams {
		l.drop(&l.streams[i])
		l.lastSeq[i] = 0
	}
}

// Stats returns the number of retained entries and payload bytes.
func (l *Log) Stats() (entries, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.streams {
		entries += l.streams[i].ents.len()
	}
	return entries, l.bytes
}

// deque is a FIFO over one backing slice: pops advance head, and a
// push that finds the slice full first slides the live part down when
// at least half of it is dead, so a log trimmed as fast as it grows
// reuses one array instead of reallocating.
type deque[T any] struct {
	s    []T
	head int
}

func (q *deque[T]) len() int  { return len(q.s) - q.head }
func (q *deque[T]) live() []T { return q.s[q.head:] }
func (q *deque[T]) front() *T { return &q.s[q.head] }

// back returns the newest element, or nil when the deque is empty.
func (q *deque[T]) back() *T {
	if q.len() == 0 {
		return nil
	}
	return &q.s[len(q.s)-1]
}

func (q *deque[T]) push(v T) {
	if len(q.s) == cap(q.s) && q.head > 0 && 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

// pop removes and returns the oldest element, clearing its slot so the
// backing array pins no payload memory.
func (q *deque[T]) pop() T {
	v := q.s[q.head]
	var zero T
	q.s[q.head] = zero
	if q.head++; q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}

// reset empties the deque, keeping its backing array.
func (q *deque[T]) reset() {
	clear(q.s)
	q.s, q.head = q.s[:0], 0
}
