package ckpt

import "fmt"

// Scheme names a redundancy encoding; it is carried on every Entry so
// stores, traces, and restores know how a parity buffer was produced.
type Scheme string

const (
	// SchemeXOR is the paper's ring-XOR encoding (Fig 9): one parity
	// chain per member, tolerating one lost rank per group.
	SchemeXOR Scheme = "xor"
	// SchemeRS is systematic Reed-Solomon RS(k,m) over GF(2^8):
	// m parity shards per member, tolerating m lost ranks per group.
	SchemeRS Scheme = "rs"
)

// Coder is a pluggable group redundancy scheme. Both implementations
// are collective: every member of a group calls Encode (and, during
// recovery, Reconstruct) with the same agreed chunkLen, and the calls
// communicate over the GroupComm.
type Coder interface {
	// Scheme identifies the encoding.
	Scheme() Scheme
	// Tolerance returns how many simultaneous member losses a group of
	// size g can repair (0 for singleton groups: no redundancy).
	Tolerance(g int) int
	// ChunkLen returns the shard length all members of a group of size
	// g must agree on, given the group's largest checkpoint size.
	ChunkLen(maxSize, g int) int
	// Encode runs the distributed group encode for member self over
	// its (conceptually chunkLen-padded) checkpoint bytes and returns
	// the parity this member stores.
	Encode(gc GroupComm, self, g int, data []byte, chunkLen int) ([]byte, error)
	// Reconstruct rebuilds the checkpoints of the lost members (sorted
	// group-local indices). Survivors contribute their data and stored
	// parity and return nil; each lost member passes nil data/parity
	// and returns its rebuilt padded checkpoint (the caller trims it
	// to the original size). Parity is NOT restored here — the caller
	// re-runs Encode group-wide afterwards.
	Reconstruct(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, error)
}

// NewCoder returns the coder for a configured redundancy level m:
// m <= 1 selects the paper's ring-XOR scheme, m >= 2 selects RS(k,m).
// workers bounds the RS kernels' worker pool (<= 0 = GOMAXPROCS).
func NewCoder(m, workers int) Coder {
	if m <= 1 {
		return XORRing{}
	}
	return NewRSGroup(m, workers)
}

// XORRing is the seed scheme: the Fig 9 ring encode unchanged, so with
// redundancy m=1 the parity bytes (and the ring protocol producing
// them) are identical to the original XOR-only runtime.
type XORRing struct{}

// Scheme implements Coder.
func (XORRing) Scheme() Scheme { return SchemeXOR }

// Tolerance implements Coder: one loss per group of at least two.
func (XORRing) Tolerance(g int) int {
	if g < 2 {
		return 0
	}
	return 1
}

// ChunkLen implements Coder.
func (XORRing) ChunkLen(maxSize, g int) int { return ChunkLen(maxSize, g) }

// Encode implements Coder via the Fig 9 ring.
func (XORRing) Encode(gc GroupComm, self, g int, data []byte, chunkLen int) ([]byte, error) {
	return EncodeRing(gc, self, g, data, chunkLen)
}

// Reconstruct implements Coder: survivors run the decode ring and send
// their resulting chunk of the lost checkpoint to the replacement,
// which relays the ring (contributing nothing) and gathers the chunks
// (paper Fig 11: decode + gather). The replacement's relay chain and
// gather buffer come from gc's arena when it has one (Forwarder), so
// the returned checkpoint is an arena buffer the caller may recycle.
func (XORRing) Reconstruct(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, error) {
	if len(lost) != 1 {
		return nil, fmt.Errorf("ckpt: xor ring repairs exactly one loss, got %d", len(lost))
	}
	lostIdx := lost[0]
	rel, _ := gc.(Releaser)
	if self != lostIdx {
		res, err := DecodeRing(gc, self, g, data, chunkLen, parity, true)
		if err != nil {
			return nil, err
		}
		return nil, forward(gc, lostIdx, res)
	}
	zero := scratch(gc, chunkLen)
	clear(zero)
	relay, err := DecodeRing(gc, self, g, nil, chunkLen, zero, false)
	if rel != nil {
		rel.Release(zero) // sent (copied) on the relay's first hop
	}
	if err != nil {
		return nil, err
	}
	if rel != nil {
		rel.Release(relay) // the replacement's ring result is discarded
	}
	// Every byte is overwritten: the survivors' chunk indices cover
	// 1..G-1 exactly once.
	out := scratch(gc, (g-1)*chunkLen)
	for i := 0; i < g; i++ {
		if i == lostIdx {
			continue
		}
		c, err := gc.Recv(i)
		if err != nil {
			return abandon(gc, out, err)
		}
		k := DecodeChunkIndex(lostIdx, i, g)
		copy(out[(k-1)*chunkLen:], c)
		if rel != nil {
			rel.Release(c) // chunk copied into place
		}
	}
	return out, nil
}
