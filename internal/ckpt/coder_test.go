package ckpt

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"fmi/internal/erasure"
)

func TestNewCoderSelection(t *testing.T) {
	for _, m := range []int{-1, 0, 1} {
		if s := NewCoder(m, 0).Scheme(); s != SchemeXOR {
			t.Fatalf("NewCoder(%d) scheme = %q, want xor", m, s)
		}
	}
	for _, m := range []int{2, 3} {
		c := NewCoder(m, 0)
		if c.Scheme() != SchemeRS {
			t.Fatalf("NewCoder(%d) scheme = %q, want rs", m, c.Scheme())
		}
		if got := c.Tolerance(8); got != m {
			t.Fatalf("NewCoder(%d).Tolerance(8) = %d", m, got)
		}
	}
}

func TestCoderToleranceAndChunkLen(t *testing.T) {
	xor := NewCoder(1, 0)
	if xor.Tolerance(1) != 0 || xor.Tolerance(2) != 1 || xor.Tolerance(8) != 1 {
		t.Fatal("xor tolerance wrong")
	}
	rs := NewCoder(3, 0)
	// Clamped to g-1 so at least one data chunk remains.
	if rs.Tolerance(1) != 0 || rs.Tolerance(2) != 1 || rs.Tolerance(3) != 2 || rs.Tolerance(8) != 3 {
		t.Fatal("rs tolerance wrong")
	}
	// RS(k=g-m): g=5, m=3 -> k=2 -> ceil(100/2)=50.
	if got := rs.ChunkLen(100, 5); got != 50 {
		t.Fatalf("rs ChunkLen(100,5) = %d, want 50", got)
	}
	// Empty checkpoints: both schemes still use 1-byte chunks.
	if xor.ChunkLen(0, 4) != 1 || rs.ChunkLen(0, 4) != 1 {
		t.Fatal("empty-checkpoint chunkLen must be 1")
	}
}

// The m=1 golden-parity gate: the XORRing coder must produce byte-for-
// byte the same stored parity as the seed's EncodeLocal/EncodeRing, so
// Redundancy=1 jobs are wire- and state-identical to the XOR-only
// runtime.
func TestXORRingCoderGoldenParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	coder := NewCoder(1, 0)
	for _, g := range []int{2, 3, 4, 8} {
		data := randData(rng, g, 600)
		maxSize := 0
		for _, d := range data {
			if len(d) > maxSize {
				maxSize = len(d)
			}
		}
		chunkLen := coder.ChunkLen(maxSize, g)
		if chunkLen != ChunkLen(maxSize, g) {
			t.Fatalf("g=%d: coder chunkLen %d != seed %d", g, chunkLen, ChunkLen(maxSize, g))
		}
		got := runRing(t, g, func(i int, gc GroupComm) ([]byte, error) {
			return coder.Encode(gc, i, g, data[i], chunkLen)
		})
		want, _ := EncodeLocal(data)
		for s := 0; s < g; s++ {
			if !bytes.Equal(got[s], want[s]) {
				t.Fatalf("g=%d: coder parity %d differs from seed ring-XOR", g, s)
			}
		}
	}
}

// rsLocalParity computes each member's expected RS parity centrally
// from the rotated-stripe layout — the reference the distributed
// encode must match.
func rsLocalParity(t *testing.T, data [][]byte, g, m, chunkLen int) [][]byte {
	t.Helper()
	if m > g-1 {
		m = g - 1
	}
	k := g - m
	code, err := erasure.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	parity := make([][]byte, g)
	for r := 0; r < g; r++ {
		parity[r] = make([]byte, m*chunkLen)
		for j := 0; j < m; j++ {
			s := mod(r-j, g)
			shards := make([][]byte, k)
			for l := 0; l < k; l++ {
				shards[l] = chunk(data[(s+m+l)%g], chunkLen, l+1)
			}
			code.EncodeRowInto(j, shards, parity[r][j*chunkLen:(j+1)*chunkLen], 1)
		}
	}
	return parity
}

func TestRSEncodeMatchesLocalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, g := range []int{2, 3, 4, 5, 8} {
		for _, m := range []int{2, 3} {
			coder := NewRSGroup(m, 1)
			data := randData(rng, g, 500)
			maxSize := 0
			for _, d := range data {
				if len(d) > maxSize {
					maxSize = len(d)
				}
			}
			chunkLen := coder.ChunkLen(maxSize, g)
			got := runRing(t, g, func(i int, gc GroupComm) ([]byte, error) {
				return coder.Encode(gc, i, g, data[i], chunkLen)
			})
			want := rsLocalParity(t, data, g, m, chunkLen)
			for r := 0; r < g; r++ {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("g=%d m=%d: rank %d distributed parity differs from reference", g, m, r)
				}
			}
		}
	}
}

// runRebuild drives a full group Rebuild over channels: the survivors
// pass their data+parity, the lost members pass nil, and the lost
// members' rebuilt checkpoints and parities are returned (indexed by
// group-local rank).
func runRebuild(t *testing.T, coder Coder, g int, lost []int, data, parity [][]byte, chunkLen int) (out, par [][]byte) {
	t.Helper()
	lostSet := map[int]bool{}
	for _, li := range lost {
		lostSet[li] = true
	}
	par = make([][]byte, g)
	out = runRing(t, g, func(i int, gc GroupComm) ([]byte, error) {
		var d []byte
		var err error
		if lostSet[i] {
			d, par[i], err = coder.Rebuild(gc, i, g, lost, nil, nil, chunkLen)
		} else {
			d, par[i], err = coder.Rebuild(gc, i, g, lost, data[i], parity[i], chunkLen)
		}
		return d, err
	})
	return out, par
}

func TestCoderReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ g, m int }{
		{2, 1}, {3, 1}, {5, 1}, {8, 1},
		{2, 2}, {3, 2}, {4, 2}, {5, 2}, {8, 2},
		{3, 3}, {4, 3}, {5, 3}, {8, 3},
	} {
		coder := NewCoder(tc.m, 1)
		data := randData(rng, tc.g, 700)
		maxSize := 0
		for _, d := range data {
			if len(d) > maxSize {
				maxSize = len(d)
			}
		}
		chunkLen := coder.ChunkLen(maxSize, tc.g)
		parity := runRing(t, tc.g, func(i int, gc GroupComm) ([]byte, error) {
			return coder.Encode(gc, i, tc.g, data[i], chunkLen)
		})
		tol := coder.Tolerance(tc.g)
		for trial := 0; trial < 12; trial++ {
			nLost := 1 + rng.Intn(tol)
			lostSet := map[int]bool{}
			for len(lostSet) < nLost {
				lostSet[rng.Intn(tc.g)] = true
			}
			lost := make([]int, 0, nLost)
			for li := range lostSet {
				lost = append(lost, li)
			}
			sort.Ints(lost)
			out, par := runRebuild(t, coder, tc.g, lost, data, parity, chunkLen)
			for _, li := range lost {
				if !bytes.Equal(out[li][:len(data[li])], data[li]) {
					t.Fatalf("g=%d m=%d lost=%v: rank %d rebuilt wrong", tc.g, tc.m, lost, li)
				}
				if !bytes.Equal(par[li], parity[li]) {
					t.Fatalf("g=%d m=%d lost=%v: rank %d parity rebuilt wrong", tc.g, tc.m, lost, li)
				}
			}
		}
	}
}

// Regression: zero-length checkpoints must encode and reconstruct
// (ChunkLen(0,g) was 0, which made the ring exchange empty frames).
func TestCoderEmptyCheckpoints(t *testing.T) {
	for _, m := range []int{1, 2} {
		coder := NewCoder(m, 1)
		g := 4
		data := make([][]byte, g) // all empty
		for i := range data {
			data[i] = []byte{}
		}
		chunkLen := coder.ChunkLen(0, g)
		if chunkLen != 1 {
			t.Fatalf("m=%d: chunkLen = %d, want 1", m, chunkLen)
		}
		parity := runRing(t, g, func(i int, gc GroupComm) ([]byte, error) {
			return coder.Encode(gc, i, g, data[i], chunkLen)
		})
		out, _ := runRebuild(t, coder, g, []int{2}, data, parity, chunkLen)
		if len(out[2]) == 0 {
			t.Fatalf("m=%d: no padded output", m)
		}
		if !bytes.Equal(out[2][:0], data[2]) {
			t.Fatalf("m=%d: empty checkpoint not recovered", m)
		}
	}
}

// BenchmarkErasureRingXOR vs BenchmarkErasureRSk1: the two m=1-grade
// encodings over the same 16 x 1 MiB group, MB/s of checkpoint data
// protected per op.
func BenchmarkErasureRingXOR(b *testing.B) {
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

func BenchmarkErasureRSk1(b *testing.B) {
	code, err := erasure.New(15, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 15)
	for i := range data {
		data[i] = make([]byte, 1<<20)
	}
	parity := [][]byte{make([]byte, 1<<20)}
	b.SetBytes(15 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.EncodeStriped(data, parity, 0)
	}
}
