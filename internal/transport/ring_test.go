package transport

import (
	"runtime"
	"sync"
	"testing"

	"fmi/internal/bufpool"
)

// TestRingFIFOWithWrapAround pushes several times the ring's capacity
// through a small ring, draining in lockstep, so the head/tail cursors
// wrap the slot array many times. Order must be preserved throughout.
func TestRingFIFOWithWrapAround(t *testing.T) {
	r := newRing(8)
	next := int32(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			if !r.enqueue(Msg{Tag: int32(round*5 + i)}) {
				t.Fatalf("round %d: enqueue %d refused", round, i)
			}
		}
		for i := 0; i < 5; i++ {
			m, ok := r.dequeue()
			if !ok {
				t.Fatalf("round %d: dequeue %d found empty ring", round, i)
			}
			if m.Tag != next {
				t.Fatalf("round %d: got tag %d, want %d", round, m.Tag, next)
			}
			next++
		}
	}
}

// TestRingFullAndEmptyBoundaries exercises the two boundary states:
// an empty ring refuses dequeue, a full ring refuses enqueue, and one
// slot freed / one slot filled flips each verdict back.
func TestRingFullAndEmptyBoundaries(t *testing.T) {
	r := newRing(4)
	if _, ok := r.dequeue(); ok {
		t.Fatal("dequeue on empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !r.enqueue(Msg{Tag: int32(i)}) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if r.enqueue(Msg{Tag: 99}) {
		t.Fatal("enqueue on full ring succeeded")
	}
	if m, ok := r.dequeue(); !ok || m.Tag != 0 {
		t.Fatalf("dequeue after full = (%v, %v), want tag 0", m.Tag, ok)
	}
	if !r.enqueue(Msg{Tag: 4}) {
		t.Fatal("enqueue refused after a slot was freed")
	}
	for want := int32(1); want <= 4; want++ {
		m, ok := r.dequeue()
		if !ok || m.Tag != want {
			t.Fatalf("drain: got (%d, %v), want %d", m.Tag, ok, want)
		}
	}
	if _, ok := r.dequeue(); ok {
		t.Fatal("dequeue on drained ring succeeded")
	}
}

// TestRingCapacityRoundsUp verifies the power-of-two rounding: a ring
// asked for 5 slots must hold at least 5 before refusing.
func TestRingCapacityRoundsUp(t *testing.T) {
	r := newRing(5)
	n := 0
	for r.enqueue(Msg{Tag: int32(n)}) {
		n++
		if n > 64 {
			t.Fatal("ring never filled")
		}
	}
	if n != 8 {
		t.Fatalf("capacity %d, want 8 (5 rounded up)", n)
	}
}

// TestRingConcurrentSPSC streams a large sequence through a small ring
// with a producer and a consumer on separate goroutines (run under
// -race this doubles as the memory-ordering proof for the seq-counter
// protocol). The consumer must observe every tag exactly once, in
// order, with enqueue-full and dequeue-empty backoff in play.
func TestRingConcurrentSPSC(t *testing.T) {
	total := 200000
	if raceEnabled {
		total = 20000 // the detector makes each atomic op ~50x slower
	}
	r := newRing(16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if r.enqueue(Msg{Tag: int32(i)}) {
				i++
			} else {
				runtime.Gosched() // full: let the consumer run
			}
		}
	}()
	for want := 0; want < total; {
		m, ok := r.dequeue()
		if !ok {
			runtime.Gosched() // empty: let the producer run
			continue
		}
		if m.Tag != int32(want) {
			t.Fatalf("got tag %d, want %d", m.Tag, want)
		}
		want++
	}
	wg.Wait()
	if _, ok := r.dequeue(); ok {
		t.Fatal("ring not empty after consuming every message")
	}
}

// TestRingPoisonReleasesFrames checks the shutdown contract: poisoning
// drains published frames exactly once, refuses new publishes, and a
// producer racing the poison self-drains (enqueue still reports
// acceptance — to the sender a dead peer looks like a silent drop).
func TestRingPoisonReleasesFrames(t *testing.T) {
	arena := bufpool.NewDebug()
	r := newRing(8)
	for i := 0; i < 3; i++ {
		r.enqueue(Msg{Data: arena.Get(64), pool: arena})
	}
	r.poison()
	if got := arena.Outstanding(); got != 0 {
		t.Fatalf("%d frames still outstanding after poison", got)
	}
	if r.enqueue(Msg{Tag: 1}) {
		t.Fatal("enqueue accepted on a poisoned ring")
	}
	if _, ok := r.dequeue(); ok {
		t.Fatal("poisoned ring still holds frames")
	}
}
