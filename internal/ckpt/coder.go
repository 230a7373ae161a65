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
// recovery, Rebuild) with the same agreed chunkLen, and the calls
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
	// Rebuild repairs the lost members (sorted group-local indices) and
	// restores the group's full redundancy in one collective pass.
	// Survivors contribute their data and stored parity and return
	// nil, nil: neither changes, so both stay valid. Each lost member
	// passes nil data/parity and returns its rebuilt padded checkpoint
	// (the caller trims it to the original size) and the parity it now
	// stores, byte-identical to what Encode would give it. With a
	// Releaser both are buffers the caller may hand back.
	Rebuild(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) (rebuilt, rebuiltParity []byte, err error)
	// Reconstruct is Rebuild keeping only the rebuilt checkpoint: the
	// parity goes back to gc's arena. Its last caller is the
	// benchmark's ring decode (bench/micro.go); delete it once that
	// calls Rebuild.
	Reconstruct(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, error)
}

// reconstruct implements Coder.Reconstruct over c.Rebuild.
func reconstruct(c Coder, gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, error) {
	out, par, err := c.Rebuild(gc, self, g, lost, data, parity, chunkLen)
	release(gc, par)
	return out, err
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

// Rebuild implements Coder in one ring pass (paper Fig 11: decode +
// gather). The survivors run the decode ring from their stored parity
// and end it one hop early: at step G-1 member i holds chain i+1,
// complete once it folds its chunk in, and sends it straight to the
// replacement rather than home. The replacement relays the ring from a
// zero chain, contributing nothing, keeps the chain its last relay
// step receives (lost+1, the last chunk of its checkpoint) and gathers
// one chain from each survivor: chain i+1 from member i is chunk
// (lost-i-1) mod G. Member lost-1 sends it two, in ring order: chain
// lost+1 at step G-2, then chain lost, the replacement's own zero chain
// after it absorbed every chunk that chain covers — its parity.
// Survivors' data and chains did not change, so nothing is re-encoded.
// The replacement's zero chain and gather buffer come from gc's arena
// when it has one (Forwarder), so the rebuilt checkpoint is an arena
// buffer the caller may recycle; its parity is a received frame.
func (XORRing) Rebuild(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, []byte, error) {
	if len(lost) != 1 {
		return nil, nil, fmt.Errorf("ckpt: xor ring repairs exactly one loss, got %d", len(lost))
	}
	lostIdx := lost[0]
	right, left := (self+1)%g, (self-1+g)%g
	if self != lostIdx {
		if err := gc.Send(right, chunk(parity, chunkLen, 1)); err != nil {
			return nil, nil, err
		}
		if err := ringSteps(gc, self, g, data, chunkLen, 1, g-2); err != nil {
			return nil, nil, err
		}
		held, err := gc.Recv(left)
		if err != nil {
			return nil, nil, err
		}
		xorChunkInto(held, data, chunkLen, g-1)
		decoded(gc)
		return nil, nil, forward(gc, lostIdx, held)
	}
	zero := scratch(gc, chunkLen)
	clear(zero)
	if err := forward(gc, right, zero); err != nil {
		return nil, nil, err
	}
	if err := ringSteps(gc, self, g, nil, chunkLen, 1, g-2); err != nil {
		return nil, nil, err
	}
	last, err := gc.Recv(left)
	if err != nil {
		return nil, nil, err
	}
	decoded(gc)
	// Every byte is overwritten: chain lost+1 and the survivors' chains
	// cover chunks 1..G-1 exactly once.
	out := scratch(gc, (g-1)*chunkLen)
	copy(out[(g-2)*chunkLen:], last)
	release(gc, last)
	var par []byte
	for i := 0; i < g; i++ {
		if i == self {
			continue
		}
		c, err := gc.Recv(i)
		if err != nil {
			release(gc, out, par)
			return nil, nil, err
		}
		k := mod(self-i-1, g)
		if k == 0 {
			par = c // chain lost, from member lost-1
			continue
		}
		copy(out[(k-1)*chunkLen:], c)
		release(gc, c) // chunk copied into place
	}
	return out, par, nil
}

// Reconstruct implements Coder.
func (c XORRing) Reconstruct(gc GroupComm, self, g int, lost []int, data, parity []byte, chunkLen int) ([]byte, error) {
	return reconstruct(c, gc, self, g, lost, data, parity, chunkLen)
}
