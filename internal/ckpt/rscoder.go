package ckpt

import (
	"fmt"
	"sync"

	"fmi/internal/erasure"
)

// RSGroup runs systematic Reed-Solomon RS(k,m) redundancy within a
// checkpoint group of G ranks, tolerating up to m simultaneous member
// losses (vs the XOR ring's one). The layout is the rotated-stripe
// generalisation of the Fig 9 chain layout:
//
// Each member's checkpoint is padded and split into k = G-m chunks.
// There are G stripes; stripe s is held by the m "parity holder" ranks
// s, s+1, .., s+m-1 (mod G) and fed by the k "contributor" ranks
// s+m+l (mod G), each contributing its own chunk l (l = 0..k-1).
// Holders and contributors partition the group, so every rank owns
// exactly one shard of every stripe: losing any set of <= m ranks
// removes <= m shards per stripe, which the MDS code repairs. Each
// member stores m parity shards (overhead m/(G-m) of its checkpoint);
// with m=1 the layout degenerates to exactly the XOR chain layout.
//
// Encode is fully asynchronous (chunks are pushed to the holders, then
// parities computed by the striped worker-pool kernels); Reconstruct
// has the survivors push the k deterministically-selected shards of
// each damaged stripe directly to the replacements, which solve the
// k x k system — no ring relay, so multi-loss recovery needs one
// communication round.
type RSGroup struct {
	m       int // configured redundancy (clamped to g-1 per group)
	workers int

	mu    sync.Mutex
	codes map[int]*erasure.Code // per group size
}

// NewRSGroup returns an RS coder with redundancy m >= 1. workers
// bounds the kernel worker pool (<= 0 = GOMAXPROCS).
func NewRSGroup(m, workers int) *RSGroup {
	if m < 1 {
		m = 1
	}
	return &RSGroup{m: m, workers: workers, codes: make(map[int]*erasure.Code)}
}

// Scheme implements Coder.
func (c *RSGroup) Scheme() Scheme { return SchemeRS }

// eff returns the effective (m, k) for a group of size g: m is clamped
// so at least one data chunk remains.
func (c *RSGroup) eff(g int) (m, k int) {
	m = c.m
	if m > g-1 {
		m = g - 1
	}
	return m, g - m
}

// Tolerance implements Coder.
func (c *RSGroup) Tolerance(g int) int {
	if g < 2 {
		return 0
	}
	m, _ := c.eff(g)
	return m
}

// ChunkLen implements Coder: ceil(maxSize/k), never zero so frames are
// non-empty even for empty checkpoints.
func (c *RSGroup) ChunkLen(maxSize, g int) int {
	if g < 2 {
		return maxSize
	}
	_, k := c.eff(g)
	if maxSize <= 0 {
		return 1
	}
	return (maxSize + k - 1) / k
}

func (c *RSGroup) code(g int) (*erasure.Code, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cd, ok := c.codes[g]; ok {
		return cd, nil
	}
	m, k := c.eff(g)
	cd, err := erasure.New(k, m)
	if err != nil {
		return nil, err
	}
	c.codes[g] = cd
	return cd, nil
}

func mod(a, g int) int { return ((a % g) + g) % g }

// paddedChunk returns chunk k (1-based) of data zero-padded to
// chunkLen, using *pad as scratch when padding is required (the eager
// transports copy at Send, so one scratch serves every padded send of
// a call). Unpadded chunks alias data.
func paddedChunk(data []byte, chunkLen, k int, pad *[]byte) []byte {
	lo := (k - 1) * chunkLen
	hi := lo + chunkLen
	if lo < len(data) && hi <= len(data) {
		return data[lo:hi]
	}
	if cap(*pad) < chunkLen {
		*pad = make([]byte, chunkLen)
	}
	p := (*pad)[:chunkLen]
	for i := range p {
		p[i] = 0
	}
	if lo < len(data) {
		copy(p, data[lo:])
	}
	return p
}

// Encode implements Coder: push each of my chunks to the m holders of
// its stripe, then compute the parity shard of each stripe I hold from
// the k chunks pushed to me. Sends all precede receives, which is
// deadlock-free on the asynchronous FMI transports; per peer pair both
// sides traverse stripes in the same (provably monotone) order, so
// FIFO matching suffices.
func (c *RSGroup) Encode(gc GroupComm, self, g int, data []byte, chunkLen int) ([]byte, error) {
	if g < 2 {
		return nil, fmt.Errorf("ckpt: rs encode needs a group of >= 2")
	}
	code, err := c.code(g)
	if err != nil {
		return nil, err
	}
	if err := c.pushChunks(gc, self, g, data, chunkLen, nil); err != nil {
		return nil, err
	}
	return c.foldParity(gc, code, self, g, chunkLen)
}

// pushChunks sends each of member self's chunks to the holders of its
// stripe, or only to those in the set when it is non-nil.
func (c *RSGroup) pushChunks(gc GroupComm, self, g int, data []byte, chunkLen int, only map[int]bool) error {
	m, k := c.eff(g)
	var pad []byte
	for l := 0; l < k; l++ {
		s := mod(self-m-l, g)
		my := paddedChunk(data, chunkLen, l+1, &pad)
		for j := 0; j < m; j++ {
			h := (s + j) % g
			if only != nil && !only[h] {
				continue
			}
			if err := gc.Send(h, my); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldParity receives the k contributor chunks of each stripe member
// self holds and returns its m parity shards.
//
// The parity computation is pipelined: GF(2^8) addition is XOR, so
// shard contributions commute and each arriving chunk folds into its
// parity row immediately (MulAddRowInto) — the striping arithmetic
// overlaps with waiting on the group exchange instead of running
// serially after it, and no k-chunk staging buffer exists. With a
// pooled GroupComm every folded chunk is recycled on the spot.
func (c *RSGroup) foldParity(gc GroupComm, code *erasure.Code, self, g, chunkLen int) ([]byte, error) {
	m, k := c.eff(g)
	parity := scratch(gc, m*chunkLen)
	clear(parity) // the fold accumulator
	for j := 0; j < m; j++ {
		s := mod(self-j, g)
		row := parity[j*chunkLen : (j+1)*chunkLen]
		for l := 0; l < k; l++ {
			b, err := gc.Recv((s + m + l) % g)
			if err != nil {
				release(gc, parity)
				return nil, err
			}
			if len(b) != chunkLen {
				release(gc, b, parity)
				return nil, fmt.Errorf("ckpt: rs encode: %d-byte shard, want %d", len(b), chunkLen)
			}
			code.MulAddRowInto(j, l, b, row, c.workers)
			release(gc, b) // folded; the chunk bytes are dead
		}
	}
	return parity, nil
}

// shardOwner returns the group-local rank owning global shard idx of
// stripe s (idx < k: contributor of chunk idx; idx >= k: holder of
// parity idx-k).
func shardOwner(s, idx, g, m, k int) int {
	if idx < k {
		return (s + m + idx) % g
	}
	return (s + idx - k) % g
}

// selectShards returns the first k shard indices of stripe s whose
// owners survive — the deterministic selection every member computes
// identically (data shards preferred, then parity).
func selectShards(s, g, m, k int, lost map[int]bool) []int {
	sel := make([]int, 0, k)
	for idx := 0; idx < g && len(sel) < k; idx++ {
		if !lost[shardOwner(s, idx, g, m, k)] {
			sel = append(sel, idx)
		}
	}
	return sel
}

// Rebuild implements Coder in two rounds. Decode: each lost member's
// chunk l lives in stripe s = lost-m-l (mod G); for every such stripe
// the survivors among the selected k shard owners push their shard to
// the lost member, which inverts the corresponding k x k generator
// submatrix to recover its chunk. Parity: only the lost members' parity
// is gone — every survivor's stripes have the same contributors with
// the same data — so each contributor to a stripe a lost member holds
// (survivor or, once rebuilt, another lost member) pushes its chunk to
// that holder, which folds its parity as Encode does. That is m*k
// chunks per lost member instead of a group-wide re-encode, and
// survivors' parity stays byte for byte what they stored.
func (c *RSGroup) Rebuild(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, []byte, error) {
	m, k := c.eff(g)
	if len(lost) == 0 || len(lost) > m {
		return nil, nil, fmt.Errorf("ckpt: rs group of %d repairs 1..%d losses, got %d", g, m, len(lost))
	}
	code, err := c.code(g)
	if err != nil {
		return nil, nil, err
	}
	lostSet := make(map[int]bool, len(lost))
	for _, li := range lost {
		lostSet[li] = true
	}

	if !lostSet[self] {
		// Survivor: push my shard of every damaged stripe that selected it.
		var pad []byte
		for _, li := range lost {
			for l := 0; l < k; l++ {
				s := mod(li-m-l, g)
				for _, idx := range selectShards(s, g, m, k, lostSet) {
					if shardOwner(s, idx, g, m, k) != self {
						continue
					}
					var sh []byte
					if idx < k {
						sh = paddedChunk(data, chunkLen, idx+1, &pad)
					} else {
						j := idx - k // == mod(self-s, g)
						sh = parity[j*chunkLen : (j+1)*chunkLen]
					}
					if err := gc.Send(li, sh); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		decoded(gc)
		return nil, nil, c.pushChunks(gc, self, g, data, chunkLen, lostSet)
	}

	// Replacement: gather the selected shards of each of my stripes and
	// solve for my chunk — recovered directly into its slot of the
	// rebuilt checkpoint (RecoverInto), no per-stripe scratch + copy.
	rel, _ := gc.(Releaser)
	out := scratch(gc, k*chunkLen) // every stripe's chunk is recovered into it
	shards := make([][]byte, k)
	wantOne := make([]int, 1)
	outOne := make([][]byte, 1)
	for l := 0; l < k; l++ {
		s := mod(self-m-l, g)
		sel := selectShards(s, g, m, k, lostSet)
		if len(sel) < k {
			release(gc, out)
			return nil, nil, fmt.Errorf("ckpt: stripe %d has only %d surviving shards, need %d", s, len(sel), k)
		}
		for i, idx := range sel {
			b, err := gc.Recv(shardOwner(s, idx, g, m, k))
			if err != nil {
				release(gc, shards[:i]...)
				release(gc, out)
				return nil, nil, err
			}
			if len(b) != chunkLen {
				release(gc, shards[:i]...)
				release(gc, b, out)
				return nil, nil, fmt.Errorf("ckpt: rs reconstruct: %d-byte shard, want %d", len(b), chunkLen)
			}
			shards[i] = b
		}
		wantOne[0] = l
		outOne[0] = out[l*chunkLen : (l+1)*chunkLen]
		err := code.RecoverInto(sel, shards, wantOne, outOne, c.workers)
		if rel != nil {
			for _, b := range shards {
				rel.Release(b) // solved; gathered shards are dead
			}
		}
		if err != nil {
			release(gc, out)
			return nil, nil, err
		}
	}
	decoded(gc)
	// My rebuilt chunks feed the stripes the other lost members hold;
	// all sends precede the receives, as in Encode.
	if err := c.pushChunks(gc, self, g, out, chunkLen, lostSet); err != nil {
		release(gc, out)
		return nil, nil, err
	}
	par, err := c.foldParity(gc, code, self, g, chunkLen)
	if err != nil {
		release(gc, out)
		return nil, nil, err
	}
	return out, par, nil
}

// Reconstruct implements Coder.
func (c *RSGroup) Reconstruct(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, error) {
	return reconstruct(c, gc, self, g, lost, data, parity, chunkLen)
}
