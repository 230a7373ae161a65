package transport

import (
	"testing"
	"time"

	"fmi/internal/bufpool"
)

// keptMsg returns an unowned FlagKeep message with a tag-derived
// payload (checkPayload verifies it).
func keptMsg(tag int32, n int) Msg {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(int(tag) + i)
	}
	return Msg{Src: 1, Tag: tag, Flags: FlagKeep, Data: buf}
}

// TestKeptPayloadChan pins the kept mode on the in-process network: a
// FlagKeep payload is copied once, outside the arena, into a buffer of
// its own size (cap == len at these page-multiple sizes), and the
// receiver keeps it with nothing to release; the sender's buffer is
// free at once.
func TestKeptPayloadChan(t *testing.T) {
	pool := bufpool.NewDebug()
	nw := NewChanNetwork(Options{Pool: pool})
	a, _ := nw.NewEndpoint(nil)
	b, _ := nw.NewEndpoint(nil)
	defer a.Close()
	defer b.Close()
	inbox := newInbox(t, b)
	for i, n := range []int{64 << 10, 48 << 10} {
		msg := keptMsg(int32(i), n)
		src := msg.Data
		if err := a.Send(b.Addr(), msg); err != nil {
			t.Fatal(err)
		}
		for j := range src {
			src[j] = 0 // eager-send: the caller may reuse its buffer
		}
		got := recvOne(t, inbox, 2*time.Second)
		checkPayload(t, got, n)
		if len(got.Data) != cap(got.Data) {
			t.Fatalf("%d B payload arrived with cap %d", n, cap(got.Data))
		}
	}
	if s := pool.Stats(); s.Gets != 0 {
		t.Fatalf("arena stats %+v: a kept payload drew an arena frame", s)
	}
	settled(t, pool)
}

// TestKeptPayloadTCP is TestKeptPayloadChan over sockets: the sender
// still queues an arena frame that its writer recycles, and the reader
// reads the payload into a fresh payload-sized buffer, so the arena sees
// one Get and one Put per message and nothing stays out.
func TestKeptPayloadTCP(t *testing.T) {
	const msgs, n = 4, 64 << 10
	pool := bufpool.NewDebug()
	nw := NewTCPNetwork(Options{Pool: pool})
	a, _ := nw.NewEndpoint(nil)
	b, _ := nw.NewEndpoint(nil)
	defer a.Close()
	defer b.Close()
	inbox := newInbox(t, b)
	for i := int32(0); i < msgs; i++ {
		if err := a.Send(b.Addr(), keptMsg(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < msgs; i++ {
		got := recvOne(t, inbox, 2*time.Second)
		if got.Tag != i {
			t.Fatalf("frame %d arrived as %d", i, got.Tag)
		}
		if got.Flags&FlagKeep == 0 {
			t.Fatalf("frame %d lost FlagKeep on the wire", i)
		}
		checkPayload(t, got, n)
		if len(got.Data) != cap(got.Data) {
			t.Fatalf("payload arrived with cap %d", cap(got.Data))
		}
	}
	settled(t, pool)
	if s := pool.Stats(); s.Gets != msgs || s.Puts != msgs {
		t.Fatalf("arena stats %+v, want %d gets and puts (the sender's frames only)", s, msgs)
	}
}
