package ckpt

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randData(rng *rand.Rand, g, maxLen int) [][]byte {
	data := make([][]byte, g)
	for i := range data {
		n := 1 + rng.Intn(maxLen)
		data[i] = make([]byte, n)
		rng.Read(data[i])
	}
	return data
}

func TestEncodeLocalReconstructAllRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []int{2, 3, 4, 5, 8, 16} {
		data := randData(rng, g, 1000)
		parity, chunkLen := EncodeLocal(data)
		for lost := 0; lost < g; lost++ {
			got := ReconstructLocal(data, parity, chunkLen, lost, len(data[lost]))
			if !bytes.Equal(got, data[lost]) {
				t.Fatalf("g=%d lost=%d: reconstruction mismatch", g, lost)
			}
		}
	}
}

func TestEncodeLocalEqualSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := 6
	data := make([][]byte, g)
	for i := range data {
		data[i] = make([]byte, 4096)
		rng.Read(data[i])
	}
	parity, chunkLen := EncodeLocal(data)
	if chunkLen != ChunkLen(4096, g) {
		t.Fatalf("chunkLen = %d", chunkLen)
	}
	for lost := 0; lost < g; lost++ {
		got := ReconstructLocal(data, parity, chunkLen, lost, 4096)
		if !bytes.Equal(got, data[lost]) {
			t.Fatalf("lost=%d mismatch", lost)
		}
	}
}

// Property: for random group sizes and random (unequal) checkpoint
// sizes, any single lost rank is exactly reconstructible.
func TestQuickXORReconstruction(t *testing.T) {
	f := func(seed int64, gRaw uint8, lostRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := 2 + int(gRaw)%15
		lost := int(lostRaw) % g
		data := randData(rng, g, 700)
		parity, chunkLen := EncodeLocal(data)
		got := ReconstructLocal(data, parity, chunkLen, lost, len(data[lost]))
		return bytes.Equal(got, data[lost])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: parity of the parity — XORing a chain with all the chunks
// it covers yields zero.
func TestQuickChainCoverage(t *testing.T) {
	f := func(seed int64, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := 2 + int(gRaw)%15
		data := randData(rng, g, 300)
		parity, chunkLen := EncodeLocal(data)
		for s := 0; s < g; s++ {
			c := make([]byte, chunkLen)
			copy(c, parity[s])
			for k := 1; k < g; k++ {
				XorInto(c, chunk(data[(s+k)%g], chunkLen, k))
			}
			for _, b := range c {
				if b != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoveringChainBijection(t *testing.T) {
	// Every (lost, k) maps to a distinct chain not stored at 'lost'.
	for _, g := range []int{2, 3, 8, 16} {
		for lost := 0; lost < g; lost++ {
			seen := map[int]bool{}
			for k := 1; k < g; k++ {
				s := CoveringChain(lost, k, g)
				if s == lost {
					t.Fatalf("g=%d: chunk %d of rank %d covered only by its own chain", g, k, lost)
				}
				if seen[s] {
					t.Fatalf("g=%d lost=%d: chain %d covers two chunks", g, lost, s)
				}
				seen[s] = true
			}
		}
	}
}

func TestChunkLen(t *testing.T) {
	cases := []struct{ size, g, want int }{
		{100, 2, 100}, {100, 5, 25}, {101, 5, 26}, {7, 8, 1},
		// Empty checkpoints still get 1-byte chunks so the ring never
		// exchanges empty frames (regression: ChunkLen(0,g) was 0).
		{0, 4, 1}, {0, 2, 1}, {-3, 5, 1},
	}
	for _, c := range cases {
		if got := ChunkLen(c.size, c.g); got != c.want {
			t.Fatalf("ChunkLen(%d,%d) = %d, want %d", c.size, c.g, got, c.want)
		}
	}
}

func TestChunkPadding(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	// chunkLen 2, g=4 -> chunks: [1,2], [3,4], [5,0]
	if got := chunk(data, 2, 3); got[0] != 5 || got[1] != 0 {
		t.Fatalf("padded chunk = %v", got)
	}
	// chunk entirely past the end
	if got := chunk(data, 2, 4); got[0] != 0 || got[1] != 0 {
		t.Fatalf("out-of-range chunk = %v", got)
	}
}

// chanGroupComm wires up a group over buffered channels for ring tests.
type chanGroupComm struct {
	self int
	in   []chan []byte // in[peer] receives data sent by peer to self
	out  []*chanGroupComm
}

func newGroup(g int) []*chanGroupComm {
	members := make([]*chanGroupComm, g)
	for i := range members {
		in := make([]chan []byte, g)
		for j := range in {
			in[j] = make(chan []byte, g+2)
		}
		members[i] = &chanGroupComm{self: i, in: in}
	}
	for i := range members {
		members[i].out = members
	}
	return members
}

func (c *chanGroupComm) Send(peer int, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.out[peer].in[c.self] <- cp
	return nil
}

func (c *chanGroupComm) Recv(peer int) ([]byte, error) {
	return <-c.in[peer], nil
}

func runRing(t *testing.T, g int, fn func(i int, gc GroupComm) ([]byte, error)) [][]byte {
	t.Helper()
	members := newGroup(g)
	out := make([][]byte, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(i, members[i])
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

func TestEncodeRingMatchesEncodeLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []int{2, 3, 4, 8, 16} {
		data := randData(rng, g, 512)
		maxSize := 0
		for _, d := range data {
			if len(d) > maxSize {
				maxSize = len(d)
			}
		}
		chunkLen := ChunkLen(maxSize, g)
		ringParity := runRing(t, g, func(i int, gc GroupComm) ([]byte, error) {
			return EncodeRing(gc, i, g, data[i], chunkLen)
		})
		wantParity, wantLen := EncodeLocal(data)
		if wantLen != chunkLen {
			t.Fatalf("chunkLen mismatch: %d vs %d", wantLen, chunkLen)
		}
		for s := 0; s < g; s++ {
			if !bytes.Equal(ringParity[s], wantParity[s]) {
				t.Fatalf("g=%d: ring parity %d differs from local", g, s)
			}
		}
	}
}

// TestXORRebuildRecoversLostRank: over plain channels, the rebuild's
// one ring pass hands the replacement exactly the lost checkpoint for
// every group size and lost index.
func TestXORRebuildRecoversLostRank(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range []int{2, 3, 5, 8} {
		data := randData(rng, g, 400)
		maxSize := 0
		for _, d := range data {
			if len(d) > maxSize {
				maxSize = len(d)
			}
		}
		chunkLen := ChunkLen(maxSize, g)
		parity, _ := EncodeLocal(data)
		for lost := 0; lost < g; lost++ {
			results := runRing(t, g, func(i int, gc GroupComm) ([]byte, error) {
				if i == lost {
					// Restarted rank: no data, no parity.
					out, _, err := XORRing{}.Rebuild(gc, i, g, []int{lost}, nil, nil, chunkLen)
					return out, err
				}
				out, _, err := XORRing{}.Rebuild(gc, i, g, []int{lost}, data[i], parity[i], chunkLen)
				return out, err
			})
			if !bytes.Equal(results[lost][:len(data[lost])], data[lost]) {
				t.Fatalf("g=%d lost=%d: ring rebuild mismatch", g, lost)
			}
		}
	}
}

func TestXorInto(t *testing.T) {
	a := []byte{0xFF, 0x00, 0xAA}
	b := []byte{0x0F, 0xF0, 0xAA}
	XorInto(a, b)
	if a[0] != 0xF0 || a[1] != 0xF0 || a[2] != 0x00 {
		t.Fatalf("a = %v", a)
	}
	// Shorter src only affects the prefix.
	c := []byte{1, 1}
	XorInto(c, []byte{1})
	if c[0] != 0 || c[1] != 1 {
		t.Fatalf("c = %v", c)
	}
}

func BenchmarkXorInto64MB(b *testing.B) {
	dst := make([]byte, 64<<20)
	src := make([]byte, 64<<20)
	b.SetBytes(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

// BenchmarkXorInto reports the XORBytes kernel against the plain byte
// loop on the same buffers.
func BenchmarkXorInto(b *testing.B) {
	dst := make([]byte, 8<<20)
	src := make([]byte, 8<<20)
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(8 << 20)
		for i := 0; i < b.N; i++ {
			XorInto(dst, src)
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(8 << 20)
		for i := 0; i < b.N; i++ {
			xorIntoBytes(dst, src)
		}
	})
}

// The kernel must stay exactly equivalent to the byte loop,
// including ragged lengths and mismatched dst/src sizes.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 255, 1024} {
		for _, srcN := range []int{n, n / 2, n + 3} {
			a := make([]byte, n)
			s := make([]byte, srcN)
			rng.Read(a)
			rng.Read(s)
			want := append([]byte(nil), a...)
			xorIntoBytes(want, s)
			XorInto(a, s)
			if !bytes.Equal(a, want) {
				t.Fatalf("n=%d srcN=%d: stride XOR differs from byte loop", n, srcN)
			}
		}
	}
}

func BenchmarkEncodeLocalGroup16(b *testing.B) {
	data := make([][]byte, 16)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	b.SetBytes(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeLocal(data)
	}
}
