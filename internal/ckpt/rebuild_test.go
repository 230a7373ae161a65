package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"fmi/internal/bufpool"
)

// rebuildCase is one group and its reference parity: EncodeLocal for
// the XOR ring, the rotated-stripe RS encode otherwise.
type rebuildCase struct {
	coder    Coder
	data     [][]byte
	want     [][]byte
	chunkLen int
}

func newRebuildCase(t *testing.T, rng *rand.Rand, m, g int) rebuildCase {
	t.Helper()
	coder := NewCoder(m, 1)
	data := raggedData(rng, g)
	maxSize := 0
	for _, d := range data {
		maxSize = max(maxSize, len(d))
	}
	chunkLen := coder.ChunkLen(maxSize, g)
	var want [][]byte
	if m <= 1 {
		want, _ = EncodeLocal(data)
	} else {
		want = rsLocalParity(t, data, g, m, chunkLen)
	}
	return rebuildCase{coder: coder, data: data, want: want, chunkLen: chunkLen}
}

// lostSets returns every single loss and every run of tol consecutive
// members (wrapping, sorted): each index is lost alone and alongside
// its neighbours.
func lostSets(g, tol int) [][]int {
	var out [][]int
	for i := 0; i < g; i++ {
		out = append(out, []int{i})
		if tol < 2 {
			continue
		}
		run := make([]int, 0, tol)
		for j := 0; j < tol; j++ {
			run = append(run, (i+j)%g)
		}
		sort.Ints(run)
		out = append(out, run)
	}
	return out
}

// pooledParities gives every member a caller-owned arena copy of its
// reference parity, as a committed checkpoint entry holds it.
func pooledParities(pool *bufpool.Arena, want [][]byte) [][]byte {
	out := make([][]byte, len(want))
	for i, w := range want {
		out[i] = pool.Get(len(w))
		copy(out[i], w)
	}
	return out
}

// rebuildOnNet runs one group Rebuild of the lost members over a fresh
// network on pool. Survivors pass their data and parity; the lost pass
// nil. It returns each member's results, error and counters.
func rebuildOnNet(t *testing.T, pool *bufpool.Arena, c rebuildCase, parity [][]byte, lost []int, forwarding bool, failAt []int) (data, par [][]byte, errs []error, ngs []*netGroup) {
	t.Helper()
	g := len(c.data)
	isLost := make([]bool, g)
	for _, li := range lost {
		isLost[li] = true
	}
	par = make([][]byte, g)
	data, errs, ngs = netRun(t, pool, g, forwarding, failAt, func(i int, gc GroupComm) ([]byte, error) {
		var d []byte
		var err error
		if isLost[i] {
			d, par[i], err = c.coder.Rebuild(gc, i, g, lost, nil, nil, c.chunkLen)
		} else {
			d, par[i], err = c.coder.Rebuild(gc, i, g, lost, c.data[i], parity[i], c.chunkLen)
		}
		return d, err
	})
	return data, par, errs, ngs
}

// TestRebuildRestoresParity: for g = 2..8, the XOR ring and RS with
// m = 2 and 3, every lost index alone and in runs of the tolerance,
// with and without Forwarder, on a debug arena — the lost members get
// back their checkpoints and exactly the reference parity, survivors
// return nothing and their parity is untouched, and the arena holds
// exactly the caller's parities plus what the rebuild returned.
func TestRebuildRestoresParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{1, 2, 3} {
		for g := 2; g <= 8; g++ {
			c := newRebuildCase(t, rng, m, g)
			for _, lost := range lostSets(g, c.coder.Tolerance(g)) {
				for _, forwarding := range []bool{true, false} {
					name := fmt.Sprintf("%s/m=%d/g=%d/lost=%v/forward=%v", c.coder.Scheme(), m, g, lost, forwarding)
					checkRebuild(t, name, c, lost, forwarding)
				}
			}
		}
	}
}

func checkRebuild(t *testing.T, name string, c rebuildCase, lost []int, forwarding bool) {
	t.Helper()
	g := len(c.data)
	pool := bufpool.NewDebug()
	parity := pooledParities(pool, c.want)
	data, par, errs, _ := rebuildOnNet(t, pool, c, parity, lost, forwarding, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: member %d: %v", name, i, err)
		}
	}
	held := g
	isLost := make([]bool, g)
	for _, li := range lost {
		isLost[li] = true
		if !bytes.Equal(data[li][:len(c.data[li])], c.data[li]) {
			t.Fatalf("%s: member %d rebuilt the wrong checkpoint", name, li)
		}
		if !bytes.Equal(par[li], c.want[li]) {
			t.Fatalf("%s: member %d rebuilt parity differs from the reference encode", name, li)
		}
		if forwarding {
			held += 2 // checkpoint and parity both from the arena
		} else if c.coder.Scheme() == SchemeXOR {
			held++ // the XOR parity is a received frame
		}
	}
	for i := range data {
		if isLost[i] {
			continue
		}
		if data[i] != nil || par[i] != nil {
			t.Fatalf("%s: survivor %d returned buffers", name, i)
		}
		if !bytes.Equal(parity[i], c.want[i]) {
			t.Fatalf("%s: survivor %d parity changed", name, i)
		}
	}
	if got := pool.Outstanding(); got != held {
		t.Fatalf("%s: the arena holds %d buffers after the rebuild, want %d: %v", name, got, held, pool.Leaks())
	}
	for _, li := range lost {
		pool.Put(data[li])
		pool.Put(par[li])
	}
	for _, p := range parity {
		pool.Put(p)
	}
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("%s: %d buffers outstanding after releasing every result: %v", name, got, pool.Leaks())
	}
}

// TestXORRebuildFrameCounts: an XOR rebuild of one loss is one ring
// pass with no re-encode — each survivor sends g frames (first hop,
// g-2 relays, its chain to the replacement) and the replacement g-1
// (its zero chain and g-2 relays).
func TestXORRebuildFrameCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for g := 2; g <= 8; g++ {
		c := newRebuildCase(t, rng, 1, g)
		for lost := 0; lost < g; lost++ {
			for _, forwarding := range []bool{true, false} {
				pool := bufpool.NewDebug()
				_, _, errs, ngs := rebuildOnNet(t, pool, c, pooledParities(pool, c.want), []int{lost}, forwarding, nil)
				for i, ng := range ngs {
					if errs[i] != nil {
						t.Fatalf("g=%d lost=%d: member %d: %v", g, lost, i, errs[i])
					}
					want := g
					if i == lost {
						want = g - 1
					}
					if ng.sent != want {
						t.Fatalf("g=%d lost=%d forward=%v: member %d sent %d frames, want %d", g, lost, forwarding, i, ng.sent, want)
					}
				}
			}
		}
	}
}

// settle returns pool's outstanding count once it reaches want, or
// after a second. A frame the failed rebuild left unconsumed can still
// be in a matcher's demux goroutine when the network closes; that
// goroutine releases it (the matcher is closed) just after.
func settle(pool *bufpool.Arena, want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := pool.Outstanding()
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRebuildFaultMatrix fails one member X at its n-th Send, Forward
// or Recv and cancels the rest of the group, as an epoch bump does,
// for every group size up to 8 (XOR and RS m = 2; up to 5 under
// -race), lost set, X and n, with and without Forwarder. Every member returns within 5 s (netRun) and X
// returns the fault. Any other member may finish if the fault came
// after its part: a survivor then has sent every frame, and a lost
// member holds its exact checkpoint and parity. Once the network is
// closed and those results are released, the arena holds exactly the
// caller's parities: nothing a failed rebuild drew or received is
// leaked or released twice.
func TestRebuildFaultMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cases := []struct{ m, gMax int }{{1, 8}, {2, 8}}
	if raceEnabled {
		// Every call of every member of every group is one run: under
		// the detector the full matrix takes ~25 s, so race builds
		// (make soak-transport runs this 60 times) stop at g = 5.
		cases = []struct{ m, gMax int }{{1, 5}, {2, 4}}
	}
	for _, tc := range cases {
		for g := 2; g <= tc.gMax; g++ {
			c := newRebuildCase(t, rng, tc.m, g)
			for _, lost := range lostSets(g, c.coder.Tolerance(g)) {
				for _, forwarding := range []bool{true, false} {
					checkFaults(t, c, lost, forwarding)
				}
			}
		}
	}
}

func checkFaults(t *testing.T, c rebuildCase, lost []int, forwarding bool) {
	t.Helper()
	g := len(c.data)
	isLost := make([]bool, g)
	for _, li := range lost {
		isLost[li] = true
	}
	// A clean run counts each member's calls.
	pool := bufpool.NewDebug()
	parity := pooledParities(pool, c.want)
	_, _, _, ngs := rebuildOnNet(t, pool, c, parity, lost, forwarding, nil)
	ops, sent := make([]int, g), make([]int, g)
	for i, ng := range ngs {
		ops[i], sent[i] = ng.ops, ng.sent
	}
	for x := 0; x < g; x++ {
		for n := 1; n <= ops[x]; n++ {
			name := fmt.Sprintf("%s/g=%d/lost=%v/forward=%v: member %d fails call %d",
				c.coder.Scheme(), g, lost, forwarding, x, n)
			pool := bufpool.NewDebug()
			parity := pooledParities(pool, c.want)
			failAt := make([]int, g)
			failAt[x] = n
			data, par, errs, ngs := rebuildOnNet(t, pool, c, parity, lost, forwarding, failAt)
			if !errors.Is(errs[x], errInjected) {
				t.Fatalf("%s: it returned %v", name, errs[x])
			}
			for i, err := range errs {
				switch {
				case err != nil:
				case !isLost[i]:
					if data[i] != nil || par[i] != nil || ngs[i].sent != sent[i] {
						t.Fatalf("%s: survivor %d returned having sent %d of %d frames", name, i, ngs[i].sent, sent[i])
					}
				default:
					// A lost member can finish if it had everything it
					// needed before the fault; then it must be right.
					if !bytes.Equal(data[i][:len(c.data[i])], c.data[i]) || !bytes.Equal(par[i], c.want[i]) {
						t.Fatalf("%s: lost member %d returned a wrong rebuild", name, i)
					}
					pool.Put(data[i])
					pool.Put(par[i])
				}
			}
			if got := settle(pool, g); got != g {
				t.Fatalf("%s: the arena holds %d buffers, want the %d parities: %v", name, got, g, pool.Leaks())
			}
		}
	}
}
