// Package ckpt implements FMI's fast, scalable in-memory
// checkpoint/restart (paper §V): snapshots captured by memcpy into
// process memory, double-buffered so a failure mid-checkpoint is always
// recoverable, and protected by the SCR XOR encoding run over a ring
// within each XOR group (paper Fig 9).
//
// Encoding scheme. For a group of G ranks, each rank's checkpoint is
// divided into G-1 equal chunks (zero-padded); chunk indices run
// 1..G-1. A parity "chain" s starts as zeros at group-local rank s and
// travels around the ring: at step k it sits at rank (s+k) mod G and
// absorbs that rank's chunk k. After G-1 steps plus one final rotation
// the chain returns to rank s, which stores it. Chain s therefore
// covers exactly one chunk of every rank except s itself, and every
// (rank, chunk) pair is covered by exactly one chain — so the loss of
// any single rank in the group (its data and its stored chain) is
// recoverable from the survivors.
//
// Decoding walks the same ring once. Every survivor starts from its
// stored chain and XORs its chunks back out; the replacement relays a
// zero chain. Chain s then ends holding chunk (lost-s) mod G of the
// lost checkpoint, and the replacement's own chain, having absorbed
// exactly the chunks it covers, ends as its parity. No chain needs the
// final rotation home: the member holding it at step G-1 sends it
// straight to the replacement (XORRing.Rebuild), so one pass both
// rebuilds the lost checkpoint and restores the group's redundancy.
package ckpt

import "crypto/subtle"

// XorInto computes dst ^= src for the overlapping length. It is the
// hot inner loop shared by both redundancy coders; crypto/subtle's
// XORBytes runs it with the platform's vector kernel.
func XorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}

// xorIntoBytes is the plain byte loop, kept only as
// TestXorIntoMatchesByteLoop's reference and BenchmarkXorInto's
// baseline.
func xorIntoBytes(dst, src []byte) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// ChunkLen returns the chunk length for a group of size g whose
// largest member checkpoint is maxSize bytes: ceil(maxSize/(g-1)).
// An empty (or degenerate) checkpoint still yields 1-byte chunks so
// the encode/decode rings never exchange empty frames.
func ChunkLen(maxSize, g int) int {
	if g < 2 {
		return maxSize
	}
	if maxSize <= 0 {
		return 1
	}
	return (maxSize + g - 2) / (g - 1)
}

// chunk returns chunk k (1-based) of data, zero-padded to chunkLen.
// The returned slice aliases data when no padding is needed.
func chunk(data []byte, chunkLen, k int) []byte {
	lo := (k - 1) * chunkLen
	hi := lo + chunkLen
	if lo >= len(data) {
		return make([]byte, chunkLen)
	}
	if hi <= len(data) {
		return data[lo:hi]
	}
	out := make([]byte, chunkLen)
	copy(out, data[lo:])
	return out
}

// xorChunkInto folds chunk k (1-based) of data into dst without
// materialising a padded chunk: the zero padding is an XOR no-op, so
// only the bytes data actually covers are touched. dst has length
// chunkLen.
func xorChunkInto(dst, data []byte, chunkLen, k int) {
	lo := (k - 1) * chunkLen
	if lo >= len(data) {
		return // chunk is pure padding
	}
	hi := lo + chunkLen
	if hi > len(data) {
		hi = len(data)
	}
	XorInto(dst, data[lo:hi])
}

// CoveringChain returns the chain id (== storing rank) that covers
// chunk k of rank 'lost' in a group of size g.
func CoveringChain(lost, k, g int) int {
	return ((lost-k)%g + g) % g
}

// EncodeLocal computes all G parity chains for a group centrally. It
// is the reference implementation used by tests, by the restart
// rebuild, and by benchmarks that don't need the communication ring.
// parity[s] is the chain stored at group-local rank s.
func EncodeLocal(data [][]byte) (parity [][]byte, chunkLen int) {
	g := len(data)
	if g < 2 {
		return nil, 0
	}
	maxSize := 0
	for _, d := range data {
		if len(d) > maxSize {
			maxSize = len(d)
		}
	}
	chunkLen = ChunkLen(maxSize, g)
	parity = make([][]byte, g)
	for s := 0; s < g; s++ {
		p := make([]byte, chunkLen)
		for k := 1; k < g; k++ {
			XorInto(p, chunk(data[(s+k)%g], chunkLen, k))
		}
		parity[s] = p
	}
	return parity, chunkLen
}

// ReconstructLocal rebuilds the checkpoint of group-local rank 'lost'
// from the survivors' data and parity chains. size is the lost
// checkpoint's original length.
func ReconstructLocal(data [][]byte, parity [][]byte, chunkLen, lost, size int) []byte {
	g := len(data)
	out := make([]byte, (g-1)*chunkLen)
	for k := 1; k < g; k++ {
		s := CoveringChain(lost, k, g)
		c := make([]byte, chunkLen)
		copy(c, parity[s])
		for kp := 1; kp < g; kp++ {
			r := (s + kp) % g
			if r == lost {
				continue
			}
			XorInto(c, chunk(data[r], chunkLen, kp))
		}
		copy(out[(k-1)*chunkLen:], c)
	}
	return out[:size]
}

// GroupComm abstracts the ring communication used by the distributed
// encode/decode: Send and Recv address group-local peer indices. The
// core runtime implements it over the FMI transport. Send is an eager
// send: the caller may reuse data as soon as it returns.
type GroupComm interface {
	Send(peer int, data []byte) error
	Recv(peer int) ([]byte, error)
}

// Releaser is optionally implemented by GroupComms whose Recv returns
// pooled buffers. The coders type-assert it and recycle every buffer
// they consume without retaining — ring chains that have been passed
// on, RS chunks already folded into parity. GroupComms without pooling
// (tests, the MPI baseline) simply don't implement it.
type Releaser interface {
	Release(buf []byte)
}

// Forwarder is optionally implemented by pooled GroupComms whose
// transport can carry a buffer instead of copying it. The coders use
// it to pass on a received chain they will not touch again — the
// frame itself travels to the next hop — and to draw their scratch
// buffers from the same arena Release returns to. Without it a chain
// is sent (copied) and then released, and scratch is plain make.
type Forwarder interface {
	Releaser
	// Get returns an uninitialised buffer of length n from the arena.
	Get(n int) []byte
	// Forward sends buf, a buffer that Recv or Get returned, to peer
	// and gives it up: the caller must not touch it afterwards, whether
	// or not Forward returns an error.
	Forward(peer int, buf []byte) error
}

// forward passes a chain the caller is done with to peer: handed over
// uncopied when gc can forward it, else sent and released.
func forward(gc GroupComm, peer int, buf []byte) error {
	if f, ok := gc.(Forwarder); ok {
		return f.Forward(peer, buf)
	}
	err := gc.Send(peer, buf)
	if rel, ok := gc.(Releaser); ok {
		rel.Release(buf) // copied by the eager send
	}
	return err
}

// scratch returns an uninitialised buffer of length n, from gc's arena
// when it has one.
func scratch(gc GroupComm, n int) []byte {
	if f, ok := gc.(Forwarder); ok {
		return f.Get(n)
	}
	return make([]byte, n)
}

// release hands bufs, buffers the caller will not return or touch
// again, back to gc's arena (if it has one). Nil entries are skipped.
func release(gc GroupComm, bufs ...[]byte) {
	rel, ok := gc.(Releaser)
	if !ok {
		return
	}
	for _, b := range bufs {
		if b != nil {
			rel.Release(b)
		}
	}
}

// PhaseTimer is optionally implemented by GroupComms that time a
// rebuild's two phases. Rebuild calls DecodeDone once on every member,
// when its decode ends and its gather begins: a replacement then
// collects what it still needs (the survivors' XOR chains, or the
// chunks of the RS stripes whose parity it holds), and a survivor sends
// its part of that.
type PhaseTimer interface {
	DecodeDone()
}

// decoded marks the end of a rebuild's decode phase on gc.
func decoded(gc GroupComm) {
	if pt, ok := gc.(PhaseTimer); ok {
		pt.DecodeDone()
	}
}

// EncodeRing runs the Fig 9 ring algorithm for one group member. It
// returns this rank's stored parity chain. chunkLen must be agreed
// group-wide (from the group's maximum checkpoint size).
//
// The first hop of the textbook walk exchanges all-zero chains: chain
// c after step 1 is exactly rank c+1's chunk 1. So instead of
// allocating a zeroed chain and sending it around, each member sends
// its own chunk 1 straight from data — the eager send copies it, so
// no chain buffer is allocated — and runs steps 2..G-1 plus the final
// rotation on the chains it receives, forwarding each one onwards.
// Every member must use the same variant (all callers run EncodeRing
// group-wide, so they do).
func EncodeRing(gc GroupComm, self, g int, data []byte, chunkLen int) ([]byte, error) {
	first, from := chunk(data, chunkLen, 1), 2
	if g < 2 {
		first, from = make([]byte, chunkLen), 1 // a lone member's chain is zeros
	}
	if err := gc.Send((self+1)%g, first); err != nil {
		return nil, err
	}
	if err := ringSteps(gc, self, g, data, chunkLen, from, g-1); err != nil {
		return nil, err
	}
	return gc.Recv((self - 1 + g) % g) // the final rotation: chain self, home
}

// ringSteps runs steps from..to of the ring walk after the member's
// first hop: each receives a chain from the left, folds chunk k of data
// into it (nil data folds nothing) and forwards it right.
//
// Every chain after the first hop is a buffer the walk owns, so with a
// Forwarder each one travels on uncopied, and with a pooled GroupComm
// the walk allocates nothing. Contributions fold in via xorChunkInto,
// so no padded chunk is materialised beyond a short first hop.
func ringSteps(gc GroupComm, self, g int, data []byte, chunkLen, from, to int) error {
	right := (self + 1) % g
	left := (self - 1 + g) % g
	for k := from; k <= to; k++ {
		held, err := gc.Recv(left)
		if err != nil {
			return err
		}
		xorChunkInto(held, data, chunkLen, k)
		if err := forward(gc, right, held); err != nil {
			return err
		}
	}
	return nil
}
