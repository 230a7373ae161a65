package ckpt

import (
	"bytes"
	"errors"
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
// the coder the received frame, Release returns it. It counts the
// member's calls, and with failAt > 0 its failAt-th Send, Forward or
// Recv fails: it closes the group's shared cancel channel, as an epoch
// bump does, so every other member's pending or next Recv fails too.
type netGroup struct {
	eps    []transport.Endpoint
	ms     []*transport.Matcher
	self   int
	pool   *bufpool.Arena
	cancel <-chan struct{}

	ops    int // Send, Forward and Recv calls
	sent   int // frames sent: Send and Forward calls
	failAt int
	abort  func()
}

var errInjected = errors.New("injected fault")

// step counts one call and fails it if it is the failAt-th.
func (g *netGroup) step() error {
	g.ops++
	if g.ops == g.failAt {
		g.abort()
		return errInjected
	}
	return nil
}

func (g *netGroup) Send(peer int, data []byte) error {
	if err := g.step(); err != nil {
		return err
	}
	g.sent++
	return g.eps[g.self].Send(g.eps[peer].Addr(), transport.Msg{Src: int32(g.self), Tag: 1, Data: data})
}

func (g *netGroup) Recv(peer int) ([]byte, error) {
	if err := g.step(); err != nil {
		return nil, err
	}
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
	if err := g.step(); err != nil {
		g.pool.Put(buf) // Forward gives buf up either way
		return err
	}
	g.sent++
	m := transport.Msg{Src: int32(g.self), Tag: 1, Data: buf}
	m.Handoff(g.pool)
	return g.eps[g.self].Send(g.eps[peer].Addr(), m)
}

var _ Forwarder = forwardingGroup{}

// runNet runs fn for every member of a g-member group over a fresh
// chan network on pool, each member in its own goroutine, and fails
// the test if any member returns an error.
func runNet(t *testing.T, pool *bufpool.Arena, g int, forwarding bool, fn func(i int, gc GroupComm) ([]byte, error)) [][]byte {
	t.Helper()
	out, errs, _ := netRun(t, pool, g, forwarding, nil, fn)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return out
}

// netRun runs fn for every member like runNet and returns each
// member's result, error and netGroup (for its counters); failAt[i] >
// 0 arms member i's fault. The network is closed before it returns, so
// the arena then holds exactly what the members returned or were
// given. A member still running 5 s after the group's cancel closed (a
// fault, or 10 s without one) fails the test.
func netRun(t *testing.T, pool *bufpool.Arena, g int, forwarding bool, failAt []int, fn func(i int, gc GroupComm) ([]byte, error)) ([][]byte, []error, []*netGroup) {
	t.Helper()
	nw := transport.NewChanNetwork(transport.Options{Pool: pool})
	cancel := make(chan struct{})
	var once sync.Once
	abort := func() { once.Do(func() { close(cancel) }) }
	defer time.AfterFunc(10*time.Second, abort).Stop()
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
	ngs := make([]*netGroup, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		ng := &netGroup{eps: eps, ms: ms, self: i, pool: pool, cancel: cancel, abort: abort}
		if failAt != nil {
			ng.failAt = failAt[i]
		}
		ngs[i] = ng
		var gc GroupComm = ng
		if forwarding {
			gc = forwardingGroup{ng}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i, gc)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-cancel:
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("members still running 5 s after the group was cancelled")
		}
	}
	return out, errs, ngs
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
// Forwarder capability, the distributed encode and rebuild (and
// Reconstruct, which drops the rebuilt parity) produce exactly the
// reference coder's bytes (EncodeLocal, ReconstructLocal) for g = 2..6
// and ragged member sizes, and the arena
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

		// Rebuild: the replacement ends with the lost checkpoint and its
		// parity chain; survivors return nothing and keep theirs.
		type result struct{ data, parity []byte }
		res := make([]result, g)
		runNet(t, pool, g, forwarding, func(i int, gc GroupComm) ([]byte, error) {
			var err error
			if i == lost {
				res[i].data, res[i].parity, err = XORRing{}.Rebuild(gc, i, g, []int{lost}, nil, nil, chunkLen)
			} else {
				res[i].data, res[i].parity, err = XORRing{}.Rebuild(gc, i, g, []int{lost}, data[i], parity[i], chunkLen)
			}
			return nil, err
		})
		for i, r := range res {
			if i != lost && (r.data != nil || r.parity != nil) {
				t.Fatalf("lost=%d: survivor %d returned buffers", lost, i)
			}
		}
		if !bytes.Equal(res[lost].data, full) || !bytes.Equal(res[lost].parity, want[lost]) {
			t.Fatalf("lost=%d: Rebuild differs from ReconstructLocal/EncodeLocal", lost)
		}
		held := g + 1 // the parities and the rebuilt parity frame
		if forwarding {
			held++ // the rebuilt checkpoint is the arena's too
		}
		if got := pool.Outstanding(); got != held {
			t.Fatalf("lost=%d: after Rebuild the arena holds %d buffers, want %d", lost, got, held)
		}
		pool.Put(res[lost].data)
		pool.Put(res[lost].parity)

		// Reconstruct: Rebuild handing the parity back.
		rebuilt := runNet(t, pool, g, forwarding, func(i int, gc GroupComm) ([]byte, error) {
			if i == lost {
				return XORRing{}.Reconstruct(gc, i, g, []int{lost}, nil, nil, chunkLen)
			}
			return XORRing{}.Reconstruct(gc, i, g, []int{lost}, data[i], parity[i], chunkLen)
		})
		if !bytes.Equal(rebuilt[lost], full) {
			t.Fatalf("lost=%d: Reconstruct differs from ReconstructLocal", lost)
		}
		held = g // the parities, plus the rebuilt checkpoint if it is the arena's
		if forwarding {
			held++
		}
		if got := pool.Outstanding(); got != held {
			t.Fatalf("lost=%d: after Reconstruct the arena holds %d buffers, want %d", lost, got, held)
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
