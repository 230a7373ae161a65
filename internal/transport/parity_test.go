package transport

import (
	"fmt"
	"testing"
	"time"
)

// TestMatcherParityChanVsTCP drives the same traffic script through a
// chan-backed and a TCP-backed matcher and asserts identical observable
// behaviour: delivery order, unexpected-queue contents, stale-epoch
// discard, duplicate suppression, a sequence gap held until a replay
// fills it, and counters — including an epoch bump with messages still
// in flight.
func TestMatcherParityChanVsTCP(t *testing.T) {
	type outcome struct {
		received  []string
		leftover  []string
		delivered uint64
		dropped   uint64
		dup       uint64
		seen      []uint64
	}

	run := func(t *testing.T, nw Network) outcome {
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
		m := NewMatcher(b)
		defer m.Close()
		m.Seed(4, nil)
		m.AdvanceEpoch(1)

		send := func(msg Msg) {
			t.Helper()
			if err := a.Send(b.Addr(), msg); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil := func(what string, cond func() bool) {
			t.Helper()
			deadline := time.Now().Add(2 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
				time.Sleep(time.Millisecond)
			}
		}

		// Phase 1, epoch 1: interleaved tags, one duplicate, one
		// message left unconsumed in the unexpected queue.
		send(Msg{Src: 1, Tag: 1, Epoch: 1, Seq: 1, Data: []byte("e1-a")})
		send(Msg{Src: 1, Tag: 2, Epoch: 1, Seq: 2, Data: []byte("e1-queued")})
		send(Msg{Src: 1, Tag: 1, Epoch: 1, Seq: 1, Data: []byte("e1-dup")})
		send(Msg{Src: 1, Tag: 1, Epoch: 1, Seq: 3, Data: []byte("e1-b")})
		// In flight across the epoch bump: an early arrival from epoch 2
		// (must be buffered, then filed once the epoch advances).
		send(Msg{Src: 2, Tag: 5, Epoch: 2, Seq: 2, Data: []byte("future")})

		var o outcome
		recv := func(ctx uint32, src, tag int32) {
			t.Helper()
			msg, err := m.Recv(ctx, src, tag, nil)
			if err != nil {
				t.Fatal(err)
			}
			o.received = append(o.received, string(msg.Data))
		}
		recv(0, 1, 1) // e1-a
		recv(0, 1, 1) // e1-b (dup suppressed in between)

		// Let the stragglers land before bumping the epoch, so they are
		// provably in the matcher, not the network.
		waitUntil("in-flight messages", func() bool {
			_, dropped, dup := m.Stats()
			unex, fut := m.queuedLen()
			return dup >= 1 && dropped == 0 && unex+fut >= 2
		})

		m.AdvanceEpoch(2)
		// Source 2's seq 1 is a straggler from epoch 1 that reaches the
		// gate only after the bump: it is discarded before it is
		// accepted, so seq 2 ("future") now sits above a gap and is
		// held, not delivered.
		send(Msg{Src: 2, Tag: 5, Epoch: 1, Seq: 1, Data: []byte("stale")})
		waitUntil("the stale straggler", func() bool {
			_, dropped, _ := m.Stats()
			return dropped >= 2
		})
		if msg, ok := m.TryRecv(0, 2, 5); ok {
			t.Fatalf("frame above the gap delivered before the gap filled: %q", msg.Data)
		}
		// A replay re-sends seq 1 under the new epoch: it fills the gap,
		// and the held frame follows it in sequence order.
		send(Msg{Src: 2, Tag: 5, Epoch: 2, Seq: 1, Flags: FlagReplay, Data: []byte("replayed")})
		recv(0, 2, 5) // replayed
		recv(0, 2, 5) // future, released from the held set

		// Whatever is still queued, in arrival order.
		for {
			msg, ok := m.TryRecv(0, AnySource, AnyTag)
			if !ok {
				break
			}
			o.leftover = append(o.leftover, string(msg.Data))
		}
		o.delivered, o.dropped, o.dup = m.Stats()
		o.seen = m.SeenVector()
		return o
	}

	chanOut := run(t, NewChanNetwork(Options{DetectDelay: time.Millisecond, PropDelay: time.Millisecond}))
	tcpOut := run(t, NewTCPNetwork(Options{DetectDelay: time.Millisecond, PropDelay: time.Millisecond}))

	if fmt.Sprint(chanOut) != fmt.Sprint(tcpOut) {
		t.Fatalf("chan and TCP transports diverged:\nchan: %+v\ntcp:  %+v", chanOut, tcpOut)
	}
	want := outcome{
		received:  []string{"e1-a", "e1-b", "replayed", "future"},
		leftover:  nil, // e1-queued discarded at the epoch bump
		delivered: 4,
		dropped:   2, // e1-queued + stale
		dup:       1,
		seen:      []uint64{0, 3, 2, 0},
	}
	if fmt.Sprint(chanOut) != fmt.Sprint(want) {
		t.Fatalf("outcome = %+v, want %+v", chanOut, want)
	}
}
