package transport

import (
	"sync"
	"sync/atomic"
)

// ring is the per-(sender, receiver) lock-free queue every in-process
// pair and every inbound TCP connection delivers through: a fixed
// power-of-two slot array with per-slot sequence counters (Vyukov's
// bounded queue) and padded head/tail cursors so the producer and
// consumer never share a cache line. Slots carry whole Msg values
// whose payloads are bufpool copies, so a slot's ownership contract is
// the arena's: the producer Gets at enqueue, whoever dequeues Releases
// (or hands the frame on).
//
// The common case is strict SPSC — one rank sending, its peer
// draining — but the sequence counters keep the queue safe when extra
// parties touch it: a message-log replay or the overlay enqueues from
// its own goroutine, and the poison protocol below makes the producer
// and the dying endpoint race to drain the same slots.
type ring struct {
	in    *ingress // the receiving endpoint's ingress; nil for a bare ring
	mask  uint64
	slots []ringSlot

	_        [56]byte // keep the cursors on separate cache lines
	head     atomic.Uint64
	_        [56]byte
	tail     atomic.Uint64
	_        [56]byte
	poisoned atomic.Bool

	// space carries "the consumer made room" wakeups to producers
	// blocked on a full ring; capacity 1 so a signal sent between a
	// producer's full-check and its park is not lost.
	space chan struct{}
}

// defaultRingSlots is the per-pair ring capacity (~20 KiB of slots):
// small enough that a ring per communicating pair stays cheap, large
// enough that only a sender far ahead of its receiver ever parks.
const defaultRingSlots = 256

type ringSlot struct {
	seq atomic.Uint64
	m   Msg
}

// newRing creates a ring with capacity rounded up to a power of two.
func newRing(capacity int) *ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &ring{
		mask:  uint64(n - 1),
		slots: make([]ringSlot, n),
		space: make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue publishes m; it returns false when the ring is full or
// poisoned (the caller still owns m in that case). If the ring is
// poisoned between the slot claim and the publish, the producer
// itself drains the ring — the dying endpoint's drain pass may
// already have run past the half-written slot — so no frame is ever
// stranded in a dead ring. In that case enqueue still returns true:
// the message was accepted and then dropped, which to the sender is
// indistinguishable from a send to a dead peer (PSM semantics).
func (r *ring) enqueue(m Msg) bool {
	if r.poisoned.Load() {
		return false
	}
	for {
		pos := r.tail.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		if seq == pos {
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.m = m
				s.seq.Store(pos + 1)
				if r.poisoned.Load() {
					r.drain(releaseMsg)
				}
				return true
			}
		} else if seq < pos {
			return false // full
		}
		// seq > pos: another producer advanced tail under us; retry.
	}
}

// dequeue takes the oldest message; ok is false when the ring is
// empty. Safe for concurrent dequeuers (the pump and a poison drain
// can overlap).
func (r *ring) dequeue() (Msg, bool) {
	for {
		pos := r.head.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		if seq == pos+1 {
			if r.head.CompareAndSwap(pos, pos+1) {
				m := s.m
				s.m = Msg{}
				s.seq.Store(pos + r.mask + 1)
				return m, true
			}
		} else if seq <= pos {
			return Msg{}, false // empty (or the next slot is mid-publish)
		}
	}
}

// signalSpace wakes one producer blocked on a full ring. Non-blocking;
// the 1-slot buffer latches the wakeup.
func (r *ring) signalSpace() {
	select {
	case r.space <- struct{}{}:
	default:
	}
}

// poison marks the ring dead and drains every published frame back to
// its arena. Called by the receiving endpoint's shutdown; combined
// with the producer-side re-check in enqueue, every pooled payload in
// the ring is released exactly once.
func (r *ring) poison() {
	r.poisoned.Store(true)
	r.drain(releaseMsg)
}

// drain dequeues until empty, handing each frame to fn.
func (r *ring) drain(fn func(Msg)) int {
	n := 0
	for {
		m, ok := r.dequeue()
		if !ok {
			return n
		}
		n++
		fn(m)
	}
}

func releaseMsg(m Msg) { m.Release() }

// publish delivers m to the ring's endpoint, blocking while the ring
// is full. sender is the producing endpoint's death channel (nil when
// the producer is the receiving endpoint's own socket reader). It
// reports false when m was dropped instead, because one end died.
//
// A producer that finds the ring full taps the bell unconditionally
// before parking: the destination's demux then drains the ring into
// the matcher's unexpected queue even when no receiver is waiting, so
// a send never depends on the peer having posted a receive (MPI eager
// semantics — two ranks that flood each other before either receives
// both make progress).
func (r *ring) publish(m Msg, sender <-chan struct{}) bool {
	in := r.in
	parked := false
	for !r.enqueue(m) {
		if r.poisoned.Load() {
			m.Release()
			return false
		}
		in.tapBell()
		select {
		case <-r.space:
			parked = true
		case <-in.dead:
			m.Release()
			return false
		case <-sender:
			m.Release()
			return false
		}
	}
	in.pend.Add(1)
	// Tap the bell only when a receiver is parked (or about to park)
	// on a match: an active receiver pumps its rings inline on every
	// receive call, so an unconditional tap would wake the demux once
	// per message just to contend for locks. The handshake is
	// Dekker-style: the receiver raises wait and then pumps once more
	// before parking, so a producer that reads wait == 0 published its
	// frame where that final pump must see it.
	if in.wait.Load() != 0 {
		in.tapBell()
	}
	if parked {
		// space latches one wakeup per drain; pass it on in case a
		// second producer of this pair parked behind us.
		r.signalSpace()
	}
	return true
}

// ingress is the receive side of an endpoint: one ring per source, a
// doorbell, and the pump that drains the rings into the Matcher. Both
// network implementations embed it, so the Matcher has one ingress
// whatever the wire is.
type ingress struct {
	slots int
	dead  <-chan struct{} // the owning endpoint's death channel

	// bell wakes the matcher's demux for traffic it must drain itself:
	// a frame published while a receiver is parked, a full ring, the
	// endpoint's death. pend counts frames queued across all rings so
	// an empty pump is one atomic load; it can dip below zero for an
	// instant (a pump can drain a frame before its producer has
	// counted it), and every increment is followed by the producer's
	// bell check, so the count that settles is the one acted on.
	bell chan struct{}
	pend atomic.Int64
	wait atomic.Int32 // receivers parked (or about to park) on a match

	drainMu sync.Mutex // serialises pumps: two drains of one ring would reorder its pair

	mu     sync.Mutex
	closed bool
	bySrc  map[Addr]*ring
	// rings in creation order (the pump order), republished on every
	// addition so pumps read it without mu; nil once shut down.
	rings atomic.Pointer[[]*ring]
}

func (in *ingress) init(slots int, dead <-chan struct{}) {
	in.slots = slots
	in.dead = dead
	in.bell = make(chan struct{}, 1)
}

// ringFor returns (creating on first use) the ring carrying frames
// from src; nil once the endpoint is dead. Receiver-side registration
// keyed by sender address makes the pair's ring unique even if two of
// the sender's goroutines race the first send.
func (in *ingress) ringFor(src Addr) *ring {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return nil
	}
	if r, ok := in.bySrc[src]; ok {
		return r
	}
	if in.bySrc == nil {
		in.bySrc = make(map[Addr]*ring)
	}
	r := newRing(in.slots)
	r.in = in
	in.bySrc[src] = r
	// A pump holding the previous list misses only this just-created
	// (still empty) ring; its first publish raises pend, which keeps
	// pumps coming until one loads a list that includes it. Appending
	// in place is safe: holders of the old header never read past its
	// length.
	var rings []*ring
	if p := in.rings.Load(); p != nil {
		rings = *p
	}
	rings = append(rings, r)
	in.rings.Store(&rings)
	return r
}

func (in *ingress) tapBell() {
	select {
	case in.bell <- struct{}{}:
	default:
	}
}

// Bell implements Endpoint.
func (in *ingress) Bell() <-chan struct{} { return in.bell }

// AddWaiter implements Endpoint.
func (in *ingress) AddWaiter(delta int32) { in.wait.Add(delta) }

// Pump implements Endpoint: it drains every ring into fn in per-pair
// FIFO order. A pump that loses the drain lock leaves its frames to
// the holder, so the holder re-checks the pending count after it
// unlocks: the loser may have been answering a bell for a frame
// published to a ring the holder had already passed, and nobody else
// is coming for it.
func (in *ingress) Pump(fn func(Msg)) bool {
	for in.pend.Load() > 0 && in.drainMu.TryLock() {
		rings := in.rings.Load()
		if rings != nil {
			for _, r := range *rings {
				if n := r.drain(fn); n > 0 {
					in.pend.Add(-int64(n))
					r.signalSpace()
				}
			}
		}
		in.drainMu.Unlock()
		if rings == nil {
			break // shut down: pend is stale, the poison drain released the frames
		}
	}
	select {
	case <-in.dead:
		return false
	default:
		return true
	}
}

// teardown tears the rings down after the endpoint's death channel has
// closed: each ring is poisoned and drained (in-flight producers that
// published concurrently re-check the poison flag and self-drain, so
// no pooled payload is stranded in a dead ring; parked ones wake on
// dead), and the bell tells the demux its endpoint is gone.
func (in *ingress) teardown() {
	in.mu.Lock()
	in.closed = true
	in.bySrc = nil
	rings := in.rings.Swap(nil)
	in.mu.Unlock()
	if rings != nil {
		for _, r := range *rings {
			r.poison()
		}
	}
	in.tapBell()
}
