package transport

import (
	"bytes"
	"testing"
	"time"

	"fmi/internal/bufpool"
)

// TestChanSendPooledRoundtrip pins the pooled send contract: payloads
// arrive byte-identical in both pooling modes, and a released frame
// goes back to the arena.
func TestChanSendPooledRoundtrip(t *testing.T) {
	for _, pool := range []*bufpool.Arena{nil, bufpool.New()} {
		nw := NewChanNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		payload := []byte("the payload survives pooling byte-for-byte")
		if err := a.Send(b.Addr(), Msg{Src: 1, Tag: 7, Data: payload}); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, newInbox(t, b), 2*time.Second)
		if !bytes.Equal(m.Data, payload) {
			t.Fatalf("pool=%v: got %q", pool != nil, m.Data)
		}
		m.Release()
		if pool != nil {
			if s := pool.Stats(); s.Gets != 1 || s.Puts != 1 {
				t.Fatalf("stats = %+v, want 1 get / 1 put", s)
			}
		}
		a.Close()
		b.Close()
	}
}

// TestChanSendLeakDetection drives the debug arena through the chan
// network: an unreleased frame is a leak, releasing clears it, and
// Detach takes the payload out of the arena economy.
func TestChanSendLeakDetection(t *testing.T) {
	pool := bufpool.NewDebug()
	nw := NewChanNetwork(Options{Pool: pool})
	a, _ := nw.NewEndpoint(nil)
	b, _ := nw.NewEndpoint(nil)
	defer a.Close()
	defer b.Close()

	a.Send(b.Addr(), Msg{Data: []byte("leaked")})
	a.Send(b.Addr(), Msg{Data: []byte("released")})
	a.Send(b.Addr(), Msg{Data: []byte("detached")})

	mb := newInbox(t, b)
	leaked := recvOne(t, mb, 2*time.Second)
	released := recvOne(t, mb, 2*time.Second)
	detached := recvOne(t, mb, 2*time.Second)
	_ = leaked // dropped without Release: must show up as a leak

	released.Release()
	kept := detached.Detach()
	if string(kept) != "detached" {
		t.Fatalf("detached payload = %q", kept)
	}
	if got := pool.Outstanding(); got != 1 {
		t.Fatalf("outstanding = %d, want 1 (only the dropped frame)", got)
	}
	leaks := pool.Leaks()
	if len(leaks) != 1 {
		t.Fatalf("leaks = %v", leaks)
	}
	leaked.Release()
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("outstanding after late release = %d", got)
	}
}

// TestMatcherReleasesDrops checks the silent-drop paths recycle their
// frames: stale epochs, epoch-fence discards, and dedup suppression
// all hand the pooled copy back to the arena.
func TestMatcherReleasesDrops(t *testing.T) {
	pool := bufpool.NewDebug()
	nw := NewChanNetwork(Options{Pool: pool})
	a, _ := nw.NewEndpoint(nil)
	b, _ := nw.NewEndpoint(nil)
	defer a.Close()
	defer b.Close()
	m := NewMatcher(b)
	defer m.Close()
	m.AdvanceEpoch(2)

	// Stale epoch: dropped on arrival.
	a.Send(b.Addr(), Msg{Epoch: 1, Data: []byte("stale")})
	// Current epoch, unexpected: discarded at the next fence.
	a.Send(b.Addr(), Msg{Epoch: 2, Tag: 9, Data: []byte("fenced")})
	waitFor(t, func() bool {
		_, dropped, _ := m.Stats()
		return dropped >= 1
	})
	m.AdvanceEpoch(3)
	waitFor(t, func() bool { return pool.Outstanding() == 0 })

	// Dedup suppression.
	m.EnableDedup(4)
	a.Send(b.Addr(), Msg{Src: 1, Epoch: 3, Seq: 5, Data: []byte("first")})
	a.Send(b.Addr(), Msg{Src: 1, Epoch: 3, Seq: 5, Data: []byte("dup")})
	msg, err := m.Recv(0, 1, AnyTag, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, _, dup := m.Stats()
		return dup == 1
	})
	msg.Release()
	waitFor(t, func() bool { return pool.Outstanding() == 0 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChanSendAllocs pins the pooled chan send path near zero
// allocations per message (epsilon for sync.Pool per-P cache misses
// after a GC).
func TestChanSendAllocs(t *testing.T) {
	pool := bufpool.New()
	nw := NewChanNetwork(Options{Pool: pool})
	a, _ := nw.NewEndpoint(nil)
	b, _ := nw.NewEndpoint(nil)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 1024)
	dst := b.Addr()
	mb := newInbox(t, b)

	send := func() {
		if err := a.Send(dst, Msg{Src: 1, Tag: 2, Data: payload}); err != nil {
			t.Fatal(err)
		}
		m, err := mb.Recv(0, 1, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	send() // warm the arena class
	avg := testing.AllocsPerRun(2000, send)
	if avg > 0.5 {
		t.Fatalf("pooled chan send allocs/op = %v, want ~0", avg)
	}
}

// TestTCPPooledRoundtrip sends pooled frames over the real TCP plane
// and verifies contents and release accounting end to end.
func TestTCPPooledRoundtrip(t *testing.T) {
	pool := bufpool.New()
	nw := NewTCPNetwork(Options{Pool: pool})
	a, _ := nw.NewEndpoint(nil)
	b, _ := nw.NewEndpoint(nil)
	defer a.Close()
	defer b.Close()

	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), Msg{Src: 1, Tag: int32(i), Data: []byte{byte(i), 0xEE}}); err != nil {
			t.Fatal(err)
		}
	}
	mb := newInbox(t, b)
	for i := 0; i < n; i++ {
		m := recvOne(t, mb, 2*time.Second)
		if m.Tag != int32(i) || m.Data[0] != byte(i) {
			t.Fatalf("frame %d: got tag=%d data=%v (order or content lost)", i, m.Tag, m.Data)
		}
		m.Release()
	}
}
