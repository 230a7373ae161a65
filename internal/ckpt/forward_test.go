package ckpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fmi/internal/bufpool"
	"fmi/internal/transport"
)

// netGroup is a GroupComm over the endpoints of one in-process network
// whose frames come from a debug arena: Send copies (eager), Recv hands
// the coder the received frame, Release returns it.
type netGroup struct {
	eps    []transport.Endpoint
	ms     []*transport.Matcher
	self   int
	pool   *bufpool.Arena
	cancel <-chan struct{}
}

func (g *netGroup) Send(peer int, data []byte) error {
	return g.eps[g.self].Send(g.eps[peer].Addr(), transport.Msg{Src: int32(g.self), Tag: 1, Data: data})
}

func (g *netGroup) Recv(peer int) ([]byte, error) {
	msg, err := g.ms[g.self].Recv(0, int32(peer), 1, g.cancel)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}

func (g *netGroup) Release(buf []byte) { g.pool.Put(buf) }

// forwardingGroup adds the Forwarder capability: scratch from the
// arena, and chains handed to the transport instead of copied.
type forwardingGroup struct{ *netGroup }

func (g forwardingGroup) Get(n int) []byte { return g.pool.Get(n) }

func (g forwardingGroup) Forward(peer int, buf []byte) error {
	m := transport.Msg{Src: int32(g.self), Tag: 1, Data: buf}
	m.Handoff(g.pool)
	return g.eps[g.self].Send(g.eps[peer].Addr(), m)
}

var _ Forwarder = forwardingGroup{}

// runNet runs fn for every member of a g-member group over a fresh
// chan network on pool, each member in its own goroutine.
func runNet(t *testing.T, pool *bufpool.Arena, g int, forwarding bool, fn func(i int, gc GroupComm) ([]byte, error)) [][]byte {
	t.Helper()
	nw := transport.NewChanNetwork(transport.Options{Pool: pool})
	cancel := make(chan struct{})
	defer time.AfterFunc(10*time.Second, func() { close(cancel) }).Stop()
	eps := make([]transport.Endpoint, g)
	ms := make([]*transport.Matcher, g)
	for i := range eps {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[i], ms[i] = ep, transport.NewMatcher(ep)
	}
	defer func() {
		for i := range eps {
			ms[i].Close()
			eps[i].Close()
		}
	}()
	out := make([][]byte, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var gc GroupComm = &netGroup{eps: eps, ms: ms, self: i, pool: pool, cancel: cancel}
			if forwarding {
				gc = forwardingGroup{gc.(*netGroup)}
			}
			out[i], errs[i] = fn(i, gc)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return out
}

// raggedData draws g checkpoints of unequal sizes, some empty and some
// shorter than one chunk, so every padding path runs.
func raggedData(rng *rand.Rand, g int) [][]byte {
	data := make([][]byte, g)
	for i := range data {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Intn(16)
		default:
			n = 1 + rng.Intn(3000)
		}
		data[i] = make([]byte, n)
		rng.Read(data[i])
	}
	return data
}

// TestRingOverPooledTransport is the property behind the copy-free
// ring: over a real transport on a debug arena, with and without the
// Forwarder capability, the distributed encode, decode and rebuild
// produce exactly the reference coder's bytes (EncodeLocal,
// ReconstructLocal) for g = 2..6 and ragged member sizes, and the arena
// afterwards holds exactly the buffers the calls returned — a frame
// leaked, double-released or freed under a later hop fails here. With
// the capability every chain after a member's first hop is forwarded
// uncopied: an encode costs the arena one frame per member, not G-1.
func TestRingOverPooledTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for g := 2; g <= 6; g++ {
		for trial := 0; trial < 4; trial++ {
			data := raggedData(rng, g)
			for _, forwarding := range []bool{true, false} {
				t.Run(fmt.Sprintf("g=%d/trial=%d/forward=%v", g, trial, forwarding), func(t *testing.T) {
					checkRingOverPool(t, data, forwarding)
				})
			}
		}
	}
}

func checkRingOverPool(t *testing.T, data [][]byte, forwarding bool) {
	g := len(data)
	pool := bufpool.NewDebug()
	want, chunkLen := EncodeLocal(data)

	before := pool.Stats().Gets
	parity := runNet(t, pool, g, forwarding, func(i int, gc GroupComm) ([]byte, error) {
		return EncodeRing(gc, i, g, data[i], chunkLen)
	})
	for s := range parity {
		if !bytes.Equal(parity[s], want[s]) {
			t.Fatalf("ring parity %d differs from EncodeLocal", s)
		}
	}
	if got := pool.Outstanding(); got != g {
		t.Fatalf("after encode the arena holds %d buffers, want the %d parities", got, g)
	}
	wantFrames := uint64(g * (g - 1)) // a copy per hop
	if forwarding {
		wantFrames = uint64(g) // one first hop per member
	}
	if frames := pool.Stats().Gets - before; frames != wantFrames {
		t.Fatalf("encode drew %d frames from the arena, want %d", frames, wantFrames)
	}

	for lost := 0; lost < g; lost++ {
		full := ReconstructLocal(data, want, chunkLen, lost, (g-1)*chunkLen)

		// DecodeRing: survivor i ends with its chunk of the lost
		// checkpoint; the relaying lost member, which started from
		// zeros, ends with its own parity chain re-derived.
		chains := runNet(t, pool, g, forwarding, func(i int, gc GroupComm) ([]byte, error) {
			if i == lost {
				return DecodeRing(gc, i, g, nil, chunkLen, make([]byte, chunkLen), false)
			}
			return DecodeRing(gc, i, g, data[i], chunkLen, parity[i], true)
		})
		for i, c := range chains {
			wantChain := want[lost]
			if k := DecodeChunkIndex(lost, i, g); i != lost {
				wantChain = full[(k-1)*chunkLen : k*chunkLen]
			}
			if !bytes.Equal(c, wantChain) {
				t.Fatalf("lost=%d: member %d decoded the wrong chain", lost, i)
			}
			pool.Put(c)
		}
		if got := pool.Outstanding(); got != g {
			t.Fatalf("lost=%d: after decode the arena holds %d buffers, want the %d parities", lost, got, g)
		}

		// Reconstruct: decode plus gather to the replacement.
		rebuilt := runNet(t, pool, g, forwarding, func(i int, gc GroupComm) ([]byte, error) {
			if i == lost {
				return XORRing{}.Reconstruct(gc, i, g, []int{lost}, nil, nil, chunkLen)
			}
			return XORRing{}.Reconstruct(gc, i, g, []int{lost}, data[i], parity[i], chunkLen)
		})
		if !bytes.Equal(rebuilt[lost], full) {
			t.Fatalf("lost=%d: Reconstruct differs from ReconstructLocal", lost)
		}
		held := g // the parities, plus the rebuilt checkpoint if it is the arena's
		if forwarding {
			held++
		}
		if got := pool.Outstanding(); got != held {
			t.Fatalf("lost=%d: after rebuild the arena holds %d buffers, want %d", lost, got, held)
		}
		pool.Put(rebuilt[lost])
	}
	for _, p := range parity {
		pool.Put(p)
	}
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("%d buffers outstanding after releasing every result: %v", got, pool.Leaks())
	}
}
