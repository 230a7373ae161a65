package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fmi/internal/bufpool"
)

// networks under test; each constructor returns a fresh network.
func testNetworks(opts Options) map[string]Network {
	return map[string]Network{
		"chan": NewChanNetwork(opts),
		"tcp":  NewTCPNetwork(opts),
	}
}

// newInbox puts a Matcher over ep; with recvOne it reads the endpoint
// as a plain arrival-order stream.
func newInbox(t testing.TB, ep Endpoint) *Matcher {
	m := NewMatcher(ep)
	t.Cleanup(m.Close)
	return m
}

// recvOne takes the next context-0 message, whatever its source and
// tag (per-source arrival order; lowest source first).
func recvOne(t *testing.T, m *Matcher, timeout time.Duration) Msg {
	t.Helper()
	return recvMatch(t, m, 0, AnySource, AnyTag, timeout)
}

func recvMatch(t *testing.T, m *Matcher, ctx uint32, src, tag int32, timeout time.Duration) Msg {
	t.Helper()
	cancel := make(chan struct{})
	defer time.AfterFunc(timeout, func() { close(cancel) }).Stop()
	msg, err := m.Recv(ctx, src, tag, cancel)
	if err != nil {
		t.Fatalf("waiting for message: %v", err)
	}
	return msg
}

func TestSendRecvBothNetworks(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, err := nw.NewEndpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := nw.NewEndpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()

			want := Msg{Src: 3, Tag: 7, Ctx: 2, Epoch: 1, Kind: KindUser, Data: []byte("hello fmi")}
			if err := a.Send(b.Addr(), want); err != nil {
				t.Fatal(err)
			}
			mb := newInbox(t, b)
			mb.AdvanceEpoch(want.Epoch)
			got := recvMatch(t, mb, want.Ctx, want.Src, want.Tag, 2*time.Second)
			if got.Src != want.Src || got.Tag != want.Tag || got.Ctx != want.Ctx ||
				got.Epoch != want.Epoch || got.Kind != want.Kind || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("got %+v, want %+v", got, want)
			}
		})
	}
}

func TestOrderPreservedPerPair(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(nil)
			defer b.Close()
			mb := newInbox(t, b)
			const n = 500
			for i := 0; i < n; i++ {
				if err := a.Send(b.Addr(), Msg{Tag: int32(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				m := recvOne(t, mb, 2*time.Second)
				if m.Tag != int32(i) {
					t.Fatalf("message %d arrived with tag %d (reordered)", i, m.Tag)
				}
			}
		})
	}
}

func TestEmptyPayload(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(nil)
			defer b.Close()
			if err := a.Send(b.Addr(), Msg{Tag: 42}); err != nil {
				t.Fatal(err)
			}
			m := recvOne(t, newInbox(t, b), 2*time.Second)
			if len(m.Data) != 0 || m.Tag != 42 {
				t.Fatalf("got %+v", m)
			}
		})
	}
}

func TestLargePayload(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(nil)
			defer b.Close()
			data := make([]byte, 8<<20)
			for i := range data {
				data[i] = byte(i * 31)
			}
			if err := a.Send(b.Addr(), Msg{Data: data}); err != nil {
				t.Fatal(err)
			}
			m := recvOne(t, newInbox(t, b), 10*time.Second)
			if !bytes.Equal(m.Data, data) {
				t.Fatal("8MB payload corrupted")
			}
		})
	}
}

func TestSendToDeadPeerDropsSilently(t *testing.T) {
	for name, nw := range testNetworks(Options{DetectDelay: time.Millisecond}) {
		t.Run(name, func(t *testing.T) {
			die := make(chan struct{})
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(die)
			close(die) // b dies abruptly
			time.Sleep(20 * time.Millisecond)
			// PSM semantics: no error reported to the sender.
			if err := a.Send(b.Addr(), Msg{Data: []byte("lost")}); err != nil {
				t.Fatalf("Send to dead peer errored: %v", err)
			}
		})
	}
}

func TestSendFromClosedEndpointErrors(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			b, _ := nw.NewEndpoint(nil)
			defer b.Close()
			a.Close()
			if err := a.Send(b.Addr(), Msg{}); err != ErrClosed {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
		})
	}
}

func TestConnectAndAccept(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(nil)
			defer b.Close()
			conn, err := a.Connect(b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			var inc Conn
			select {
			case inc = <-b.Accept():
			case <-time.After(2 * time.Second):
				t.Fatal("no incoming connection")
			}
			if conn.Remote() != b.Addr() {
				t.Fatalf("conn.Remote = %v, want %v", conn.Remote(), b.Addr())
			}
			if inc.Remote() != a.Addr() {
				t.Fatalf("incoming Remote = %v, want %v", inc.Remote(), a.Addr())
			}
		})
	}
}

func TestConnectToDeadPeerFails(t *testing.T) {
	for name, nw := range testNetworks(Options{DetectDelay: time.Millisecond}) {
		t.Run(name, func(t *testing.T) {
			die := make(chan struct{})
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(die)
			close(die)
			time.Sleep(20 * time.Millisecond)
			if _, err := a.Connect(b.Addr()); err == nil {
				t.Fatal("Connect to dead peer succeeded")
			}
		})
	}
}

func TestDisconnectEventOnDeath(t *testing.T) {
	for name, nw := range testNetworks(Options{DetectDelay: 5 * time.Millisecond}) {
		t.Run(name, func(t *testing.T) {
			die := make(chan struct{})
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(die)
			conn, err := a.Connect(b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			<-b.Accept()
			start := time.Now()
			close(die)
			select {
			case <-conn.Closed():
			case <-time.After(2 * time.Second):
				t.Fatal("no disconnect event after peer death")
			}
			if name == "chan" {
				if d := time.Since(start); d < 4*time.Millisecond {
					t.Fatalf("disconnect observed after %v, want >= DetectDelay", d)
				}
			}
		})
	}
}

func TestDisconnectEventOnExplicitClose(t *testing.T) {
	for name, nw := range testNetworks(Options{PropDelay: 2 * time.Millisecond}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			b, _ := nw.NewEndpoint(nil)
			defer b.Close()
			conn, err := a.Connect(b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			inc := <-b.Accept()
			conn.Close()
			select {
			case <-inc.Closed():
			case <-time.After(2 * time.Second):
				t.Fatal("remote side never observed close")
			}
			select {
			case <-conn.Closed():
			default:
				t.Fatal("local side not closed")
			}
		})
	}
}

func TestConcurrentSendersManyToOne(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			dst, _ := nw.NewEndpoint(nil)
			defer dst.Close()
			md := newInbox(t, dst)
			const senders, per = 8, 100
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				ep, _ := nw.NewEndpoint(nil)
				defer ep.Close()
				wg.Add(1)
				go func(s int, ep Endpoint) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						ep.Send(dst.Addr(), Msg{Src: int32(s), Tag: int32(i)})
					}
				}(s, ep)
			}
			got := make(map[int32]int32) // src -> next expected tag
			for n := 0; n < senders*per; n++ {
				m := recvOne(t, md, 5*time.Second)
				if m.Tag != got[m.Src] {
					t.Fatalf("src %d: got tag %d, want %d (per-pair order broken)", m.Src, m.Tag, got[m.Src])
				}
				got[m.Src]++
			}
			wg.Wait()
		})
	}
}

func TestSendToUnknownAddrDrops(t *testing.T) {
	nw := NewChanNetwork(Options{})
	a, _ := nw.NewEndpoint(nil)
	defer a.Close()
	if err := a.Send(Addr("chan-9999"), Msg{}); err != nil {
		t.Fatalf("send to unknown addr errored: %v", err)
	}
}

// TestFullRingWakesOnPeerDeath parks a sender on a full ring (nobody
// pumps b) and kills b: the blocked send must return as a silent drop.
func TestFullRingWakesOnPeerDeath(t *testing.T) {
	nw := NewChanNetwork(Options{RingSlots: 2})
	die := make(chan struct{})
	a, _ := nw.NewEndpoint(nil)
	defer a.Close()
	b, _ := nw.NewEndpoint(die)
	for i := 0; i < 2; i++ { // fill the ring
		if err := a.Send(b.Addr(), Msg{Tag: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- a.Send(b.Addr(), Msg{Tag: 2}) }()
	select {
	case err := <-done:
		t.Fatalf("send to a full ring returned %v without blocking", err)
	case <-time.After(10 * time.Millisecond):
	}
	close(die)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked send returned %v after peer death, want nil drop", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked send never woke after peer death")
	}
}

// TestEndpointDeathClosesMatcher pins the one signal by which a
// matcher learns its endpoint died, on both networks: the bell, then a
// pump that reports the endpoint dead. A parked receive returns
// ErrMatcherClosed.
func TestEndpointDeathClosesMatcher(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.NewEndpoint(nil)
			m := NewMatcher(a)
			done := make(chan error, 1)
			go func() {
				_, err := m.Recv(0, 1, 1, nil)
				done <- err
			}()
			time.Sleep(5 * time.Millisecond)
			a.Close()
			select {
			case err := <-done:
				if err != ErrMatcherClosed {
					t.Fatalf("err = %v, want ErrMatcherClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("receive still parked after its endpoint closed")
			}
		})
	}
}

// TestPumpLoserFrameNotStranded pins the pump's lost-wakeup fix. A
// pump that holds the drain lock has already passed ring 1 when a
// frame lands there for a parked receiver; the demux pump that answers
// the bell loses TryLock and walks away. The holder must pick the
// frame up once it unlocks — nobody else is coming for it.
func TestPumpLoserFrameNotStranded(t *testing.T) {
	nw := NewChanNetwork(Options{})
	a1, _ := nw.NewEndpoint(nil)
	defer a1.Close()
	a2, _ := nw.NewEndpoint(nil)
	defer a2.Close()
	b, _ := nw.NewEndpoint(nil)
	defer b.Close()
	m := newInbox(t, b)

	// Ring order on b: a1 first, then a2.
	a1.Send(b.Addr(), Msg{Src: 1, Tag: 1})
	recvMatch(t, m, 0, 1, 1, 2*time.Second)
	// No receiver is parked, so this frame rings no bell and waits for
	// the holder below.
	a2.Send(b.Addr(), Msg{Src: 2, Tag: 1})

	passed, release := make(chan struct{}), make(chan struct{})
	held := make(chan struct{})
	go func() {
		defer close(held)
		b.Pump(func(msg Msg) {
			if msg.Src == 2 { // past a1's (empty) ring, inside a2's
				close(passed)
				<-release
			}
			m.ingest(msg)
		})
	}()
	<-passed

	got := make(chan Msg, 1)
	go func() {
		msg, err := m.Recv(0, 1, 9, nil)
		if err == nil {
			got <- msg
		}
	}()
	in := &b.(*chanEndpoint).ingress
	waitFor(t, func() bool { return in.wait.Load() == 1 })
	a1.Send(b.Addr(), Msg{Src: 1, Tag: 9})
	time.Sleep(20 * time.Millisecond) // demux answers the bell, loses the lock, returns
	close(release)
	<-held
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatalf("frame stranded: pend=%d wait=%d", in.pend.Load(), in.wait.Load())
	}
}

// TestSymmetricFloodBeforeReceive is the eager-send guarantee: two
// ranks each send a long burst to the other before either posts a
// receive. A producer that fills its ring rings the destination's bell
// unconditionally, so the demux drains into the unexpected queue and
// neither sender waits on the other's receive.
func TestSymmetricFloodBeforeReceive(t *testing.T) {
	const n = 20000
	placed := func(nw Network) func() (Endpoint, error) {
		return func() (Endpoint, error) { return nw.(NodePlacer).NewEndpointOnNode(0, nil) }
	}
	chanNet, tcpNet := NewChanNetwork(Options{}), NewTCPNetwork(Options{})
	for name, mk := range map[string]func() (Endpoint, error){
		"chan":        func() (Endpoint, error) { return chanNet.NewEndpoint(nil) },
		"chan-placed": placed(NewChanNetwork(Options{})),
		"tcp":         func() (Endpoint, error) { return tcpNet.NewEndpoint(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			var eps [2]Endpoint
			var ms [2]*Matcher
			for i := range eps {
				ep, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				defer ep.Close()
				eps[i], ms[i] = ep, newInbox(t, ep)
			}
			errs := make(chan error, 2)
			for i := range eps {
				go func(i int) {
					peer := 1 - i
					payload := make([]byte, 8)
					for k := 0; k < n; k++ {
						if err := eps[i].Send(eps[peer].Addr(), Msg{Src: int32(i), Tag: int32(k), Data: payload}); err != nil {
							errs <- err
							return
						}
					}
					for k := 0; k < n; k++ {
						msg, err := ms[i].Recv(0, int32(peer), int32(k), nil)
						if err != nil {
							errs <- err
							return
						}
						msg.Release()
					}
					errs <- nil
				}(i)
			}
			for range eps {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("symmetric flood deadlocked")
				}
			}
		})
	}
}

func TestEndpointAddrsUnique(t *testing.T) {
	for name, nw := range testNetworks(Options{}) {
		t.Run(name, func(t *testing.T) {
			seen := map[Addr]bool{}
			for i := 0; i < 20; i++ {
				ep, err := nw.NewEndpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				defer ep.Close()
				if seen[ep.Addr()] {
					t.Fatalf("duplicate addr %v", ep.Addr())
				}
				seen[ep.Addr()] = true
			}
		})
	}
}

func TestFrameCodecRoundtrip(t *testing.T) {
	cases := []Msg{
		{},
		{Src: -1, Tag: -5, Ctx: 0, Epoch: 0, Kind: KindCtl},
		{Src: 1 << 20, Tag: 1 << 30, Ctx: 77, Epoch: 3, Kind: KindCkpt, Data: []byte{0}},
		{Data: bytes.Repeat([]byte{0xAB}, 65537)},
	}
	for i, m := range cases {
		var buf bytes.Buffer
		w := newTestWriter(&buf)
		var hdr [frameHeaderSize]byte
		if err := writeFrame(w, &hdr, m); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		got, err := readFrame(newTestReader(&buf), nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Src != m.Src || got.Tag != m.Tag || got.Ctx != m.Ctx || got.Epoch != m.Epoch || got.Kind != m.Kind {
			t.Fatalf("case %d: header mismatch: %+v vs %+v", i, got, m)
		}
		if !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("case %d: payload mismatch", i)
		}
	}
}

func BenchmarkChanSendRecv(b *testing.B) {
	benchSendRecv(b, func() Network { return NewChanNetwork(Options{Pool: bufpool.New()}) })
}

func BenchmarkTCPSendRecv(b *testing.B) {
	benchSendRecv(b, func() Network { return NewTCPNetwork(Options{Pool: bufpool.New()}) })
}

// benchSendRecv times a pooled send, its matched receive (which pumps
// the ring inline: no goroutine hand-off on chan) and the release, at
// both ends and the middle of the eager range.
func benchSendRecv(b *testing.B, mk func() Network) {
	for _, size := range []int{1, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			nw := mk()
			a, _ := nw.NewEndpoint(nil)
			defer a.Close()
			dst, _ := nw.NewEndpoint(nil)
			defer dst.Close()
			m := newInbox(b, dst)
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Send(dst.Addr(), Msg{Data: payload})
				msg, err := m.Recv(0, 0, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				msg.Release()
			}
		})
	}
}
