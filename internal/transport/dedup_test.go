package transport

import (
	"testing"
	"time"
)

// drain waits for the demux goroutine to process everything a.Send put
// in flight (chan transport delivery is asynchronous).
func settle() { time.Sleep(10 * time.Millisecond) }

func TestDedupSuppressesDuplicateSeqs(t *testing.T) {
	a, b, mb := newMatcherPair(t)
	mb.EnableDedup(4)
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 1, Data: []byte("one")})
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 2, Data: []byte("two")})
	// A replaying sender re-sends seq 1 and 2; both must be suppressed.
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 1, Flags: FlagReplay, Data: []byte("one")})
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 2, Flags: FlagReplay, Data: []byte("two")})
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 3, Data: []byte("three")})
	for _, want := range []string{"one", "two", "three"} {
		msg, err := mb.Recv(0, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(msg.Data) != want {
			t.Fatalf("got %q, want %q", msg.Data, want)
		}
	}
	settle()
	if _, ok := mb.TryRecv(0, 1, 1); ok {
		t.Fatal("duplicate leaked through to the unexpected queue")
	}
	_, _, dup := mb.Stats()
	if dup != 2 {
		t.Fatalf("dupSuppressed = %d, want 2", dup)
	}
}

func TestDedupUnsequencedExempt(t *testing.T) {
	a, b, mb := newMatcherPair(t)
	mb.EnableDedup(4)
	// Seq 0 control traffic is never deduplicated, even repeated.
	a.Send(b.Addr(), Msg{Src: 2, Tag: 7, Data: []byte("c1")})
	a.Send(b.Addr(), Msg{Src: 2, Tag: 7, Data: []byte("c2")})
	for _, want := range []string{"c1", "c2"} {
		msg, err := mb.Recv(0, 2, 7, nil)
		if err != nil || string(msg.Data) != want {
			t.Fatalf("got %q, %v; want %q", msg.Data, err, want)
		}
	}
}

func TestDedupSeedSeenAndWatermarks(t *testing.T) {
	a, b, mb := newMatcherPair(t)
	mb.EnableDedup(4)
	mb.SeedSeen([]uint64{0, 5, 0, 0})
	// Everything at or below the seeded watermark is a duplicate.
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 4, Data: []byte("old")})
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 5, Data: []byte("old")})
	a.Send(b.Addr(), Msg{Src: 1, Tag: 1, Seq: 6, Data: []byte("new")})
	msg, err := mb.Recv(0, 1, 1, nil)
	if err != nil || string(msg.Data) != "new" {
		t.Fatalf("got %q, %v", msg.Data, err)
	}
	seen := mb.SeenVector()
	if seen[1] != 6 {
		t.Fatalf("seen[1] = %d, want 6", seen[1])
	}
	// SeedSeen never moves a watermark backwards.
	mb.SeedSeen([]uint64{0, 2, 0, 0})
	if got := mb.SeenVector()[1]; got != 6 {
		t.Fatalf("watermark regressed to %d", got)
	}
}

func TestHarvestAndInjectCarryOver(t *testing.T) {
	a, b, mb := newMatcherPair(t)
	mb.EnableDedup(4)
	// One sequenced message accepted but unconsumed, one control message.
	a.Send(b.Addr(), Msg{Src: 3, Tag: 2, Seq: 1, Flags: FlagReplay, Data: []byte("pending")})
	a.Send(b.Addr(), Msg{Src: 3, Tag: -9, Data: []byte("ctl")})
	settle()
	seen, queued := mb.HarvestState()
	if seen[3] != 1 {
		t.Fatalf("harvested seen[3] = %d, want 1", seen[3])
	}
	if len(queued) != 1 || string(queued[0].Data) != "pending" {
		t.Fatalf("harvested queue = %+v, want only the sequenced message", queued)
	}
	if queued[0].Flags&FlagReplay != 0 {
		t.Fatal("replay flag not cleared on harvested message")
	}

	// A fresh matcher seeded with the harvest delivers the carried
	// message and still suppresses its duplicate.
	nw := NewChanNetwork(Options{})
	c, err := nw.NewEndpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m2 := NewMatcher(c)
	defer m2.Close()
	m2.EnableDedup(4)
	m2.SeedSeen(seen)
	m2.Inject(queued)
	msg, ok := m2.TryRecv(0, 3, 2)
	if !ok || string(msg.Data) != "pending" {
		t.Fatalf("injected message not delivered: %+v %v", msg, ok)
	}
	m2.ingest(Msg{Src: 3, Tag: 2, Seq: 1, Data: []byte("dup")})
	if _, ok := m2.TryRecv(0, 3, 2); ok {
		t.Fatal("seeded watermark failed to suppress the duplicate")
	}
}

func TestDedupOutOfRangeSourceDropped(t *testing.T) {
	_, _, mb := newMatcherPair(t)
	mb.EnableDedup(2)
	mb.ingest(Msg{Src: 99, Tag: 1, Seq: 1, Data: []byte("bogus")})
	if _, ok := mb.TryRecv(0, 99, 1); ok {
		t.Fatal("sequenced message with out-of-range source accepted")
	}
}

func TestOrderedDedupHoldsFramesAboveGap(t *testing.T) {
	_, _, mb := newMatcherPair(t)
	mb.EnableOrderedDedup(4, []uint64{0, 4, 0, 0})
	// One copy of source 1 began mirroring to this endpoint late and
	// delivers 6 and 7 before the other copy's 5 lands. A plain high
	// watermark would accept 6 and then drop 5 as a duplicate.
	mb.ingest(Msg{Src: 1, Tag: 1, Seq: 6, Data: []byte("six")})
	mb.ingest(Msg{Src: 1, Tag: 1, Seq: 7, Data: []byte("seven")})
	if msg, ok := mb.TryRecv(0, 1, 1); ok {
		t.Fatalf("frame above the gap delivered early: %q", msg.Data)
	}
	if got := mb.SeenVector()[1]; got != 4 {
		t.Fatalf("watermark moved over the gap to %d", got)
	}
	mb.ingest(Msg{Src: 1, Tag: 1, Seq: 5, Data: []byte("five")})
	mb.ingest(Msg{Src: 1, Tag: 1, Seq: 6, Data: []byte("six, second copy")})
	for _, want := range []string{"five", "six", "seven"} {
		msg, ok := mb.TryRecv(0, 1, 1)
		if !ok || string(msg.Data) != want {
			t.Fatalf("got %q %v, want %q", msg.Data, ok, want)
		}
	}
	if msg, ok := mb.TryRecv(0, 1, 1); ok {
		t.Fatalf("duplicate delivered: %q", msg.Data)
	}
	if got := mb.SeenVector()[1]; got != 7 {
		t.Fatalf("seen[1] = %d, want 7", got)
	}
}

func TestOrderedDedupSeedReleasesHeldFrames(t *testing.T) {
	_, _, mb := newMatcherPair(t)
	mb.EnableOrderedDedup(4, nil)
	// A re-provisioned copy hears mirrored frames before its state
	// snapshot: they wait until the snapshot's watermarks arrive, and
	// those at or below them are the snapshot's own.
	mb.ingest(Msg{Src: 2, Tag: 1, Seq: 8, Data: []byte("eight")})
	mb.ingest(Msg{Src: 2, Tag: 1, Seq: 9, Data: []byte("nine")})
	mb.ingest(Msg{Src: 2, Tag: 1, Seq: 10, Data: []byte("ten")})
	mb.SeedSeenPurge([]uint64{0, 0, 8, 0})
	for _, want := range []string{"nine", "ten"} {
		msg, ok := mb.TryRecv(0, 2, 1)
		if !ok || string(msg.Data) != want {
			t.Fatalf("got %q %v, want %q", msg.Data, ok, want)
		}
	}
	if msg, ok := mb.TryRecv(0, 2, 1); ok {
		t.Fatalf("frame below the seeded watermark delivered: %q", msg.Data)
	}
}

func TestInjectKeepsSequenceOrder(t *testing.T) {
	_, _, mb := newMatcherPair(t)
	mb.EnableDedup(4)
	mb.SeedSeen([]uint64{0, 0, 3, 0})
	// A newer message arrived directly before the older, already
	// accepted ones are spliced in: the splice must go ahead of it.
	mb.ingest(Msg{Src: 2, Tag: 1, Seq: 4, Data: []byte("four")})
	mb.Inject([]Msg{
		{Src: 2, Tag: 1, Seq: 2, Data: []byte("two")},
		{Src: 2, Tag: 1, Seq: 3, Data: []byte("three")},
	})
	for _, want := range []string{"two", "three", "four"} {
		msg, ok := mb.TryRecv(0, 2, 1)
		if !ok || string(msg.Data) != want {
			t.Fatalf("got %q %v, want %q", msg.Data, ok, want)
		}
	}
}
