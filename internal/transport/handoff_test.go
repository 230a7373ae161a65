package transport

import (
	"bytes"
	"testing"
	"time"

	"fmi/internal/bufpool"
)

// ownedMsg returns a message whose payload is a frame drawn from pool
// and handed over at Send.
func ownedMsg(pool *bufpool.Arena, tag int32, n int) Msg {
	buf := pool.Get(n)
	for i := range buf {
		buf[i] = byte(int(tag) + i)
	}
	m := Msg{Src: 1, Tag: tag, Data: buf}
	m.Handoff(pool)
	return m
}

func checkPayload(t *testing.T, m Msg, n int) {
	t.Helper()
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(int(m.Tag) + i)
	}
	if !bytes.Equal(m.Data, want) {
		t.Fatalf("tag %d: payload differs from what was handed over", m.Tag)
	}
}

func settled(t *testing.T, pool *bufpool.Arena) {
	t.Helper()
	waitFor(t, func() bool { return pool.Outstanding() == 0 })
}

// TestHandoffChan pins the ownership rule on the in-process network: a
// handed-off frame is published as it is (the receiver gets the very
// buffer), and every drop path — unknown address, dead destination,
// closed sender — releases it. The
// debug arena panics on a double release and counts what is still out.
func TestHandoffChan(t *testing.T) {
	const n = 4096
	t.Run("live", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewChanNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		defer a.Close()
		defer b.Close()
		msg := ownedMsg(pool, 3, n)
		sent := &msg.Data[0]
		if err := a.Send(b.Addr(), msg); err != nil {
			t.Fatal(err)
		}
		got := recvOne(t, newInbox(t, b), 2*time.Second)
		checkPayload(t, got, n)
		if &got.Data[0] != sent {
			t.Fatal("the handed-off frame was copied")
		}
		got.Release()
		settled(t, pool)
	})
	t.Run("unknown", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewChanNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		defer a.Close()
		if err := a.Send("chan-nowhere", ownedMsg(pool, 1, n)); err != nil {
			t.Fatalf("send to an unknown address: %v, want a silent drop", err)
		}
		settled(t, pool)
	})
	t.Run("dead-destination", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewChanNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		c, _ := nw.NewEndpoint(nil)
		defer a.Close()
		// b's ring is routed (cached) before it dies; c is never routed.
		if err := a.Send(b.Addr(), ownedMsg(pool, 1, n)); err != nil {
			t.Fatal(err)
		}
		b.Close()
		c.Close()
		for _, to := range []Addr{b.Addr(), c.Addr()} {
			if err := a.Send(to, ownedMsg(pool, 2, n)); err != nil {
				t.Fatalf("send to dead %s: %v, want a silent drop", to, err)
			}
		}
		settled(t, pool)
	})
	t.Run("closed-sender", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewChanNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		defer b.Close()
		a.Close()
		if err := a.Send(b.Addr(), ownedMsg(pool, 1, n)); err != ErrClosed {
			t.Fatalf("send from a closed endpoint: %v, want ErrClosed", err)
		}
		settled(t, pool)
	})
}

// TestHandoffTCP is TestHandoffChan over sockets: the writer releases a
// handed-off frame once it is written or abandoned, so a live peer, a
// peer whose endpoint died, and an address nobody listens on all end
// with nothing outstanding.
func TestHandoffTCP(t *testing.T) {
	const n = 64 << 10 // several times the writer's buffer
	t.Run("live", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewTCPNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		defer a.Close()
		defer b.Close()
		inbox := newInbox(t, b)
		for i := int32(0); i < 4; i++ {
			if err := a.Send(b.Addr(), ownedMsg(pool, i, n)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int32(0); i < 4; i++ {
			got := recvOne(t, inbox, 2*time.Second)
			if got.Tag != i {
				t.Fatalf("frame %d arrived as %d", i, got.Tag)
			}
			checkPayload(t, got, n)
			got.Release()
		}
		settled(t, pool)
	})
	t.Run("dead-connection", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewTCPNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		defer a.Close()
		// Open the connection, then kill the peer under it.
		if err := a.Send(b.Addr(), ownedMsg(pool, 0, n)); err != nil {
			t.Fatal(err)
		}
		first := recvOne(t, newInbox(t, b), 2*time.Second)
		first.Release()
		b.Close()
		for i := int32(1); i <= 16; i++ {
			if err := a.Send(b.Addr(), ownedMsg(pool, i, n)); err != nil {
				t.Fatalf("send to a dead peer: %v, want a silent drop", err)
			}
		}
		settled(t, pool)
	})
	t.Run("closed-sender", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewTCPNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		defer b.Close()
		a.Close()
		if err := a.Send(b.Addr(), ownedMsg(pool, 1, n)); err != ErrClosed {
			t.Fatalf("send from a closed endpoint: %v, want ErrClosed", err)
		}
		settled(t, pool)
	})
	t.Run("unreachable", func(t *testing.T) {
		pool := bufpool.NewDebug()
		nw := NewTCPNetwork(Options{Pool: pool})
		a, _ := nw.NewEndpoint(nil)
		b, _ := nw.NewEndpoint(nil)
		defer a.Close()
		gone := b.Addr()
		b.Close() // nobody listens on the address any more
		if err := a.Send(gone, ownedMsg(pool, 1, n)); err != nil {
			t.Fatalf("send to an unreachable address: %v, want a silent drop", err)
		}
		settled(t, pool)
	})
}
