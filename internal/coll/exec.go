package coll

import (
	"fmt"

	"fmi/internal/enc"
)

// Transport is the point-to-point substrate a schedule executes over.
// Send must be eager (copy the payload; block only under backpressure,
// never waiting for the receiver to post) — both the core chan/TCP
// endpoints and the MPI baseline satisfy this, which is what makes a
// round's symmetric exchanges deadlock-free. Errors from either method
// abort the collective and are returned from Exec unwrapped, so the
// core's failure sentinels (e.g. ErrFailureDetected) flow through to
// Loop intact.
type Transport interface {
	Send(peer int, data []byte) error
	Recv(peer int) ([]byte, error)
}

// Releaser is optionally implemented by transports whose Recv returns
// pooled buffers. Exec type-asserts it and hands back every payload it
// consumes without retaining (reduce contributions, sync barriers);
// payloads installed into the caller's block table are never released
// but handed to Detach, since their bytes outlive the schedule.
// Transports without pooling (the MPI baseline, test fakes) simply
// don't implement it.
type Releaser interface {
	Release(buf []byte)
	Detach(buf []byte)
}

// ReduceFn folds src into acc element-wise; acc and src have equal
// length. It must be commutative and associative: schedules combine
// contributions in tree or ring order, not rank order.
type ReduceFn func(acc, src []byte)

// Exec drives a schedule over tp, mutating blocks in place: sends read
// from the block table, receives overwrite entries, and reduce steps
// fold into them. len(blocks) must equal s.Blocks. op is required only
// when the schedule contains OpRecvReduce steps with blocks; a nil op
// turns those steps into pure synchronisation (payloads discarded),
// which the barrier and agreement schedules rely on.
func Exec(s *Schedule, tp Transport, blocks [][]byte, op ReduceFn) error {
	if len(blocks) != s.Blocks {
		return fmt.Errorf("coll: %s needs %d blocks, got %d", s, s.Blocks, len(blocks))
	}
	rel, _ := tp.(Releaser)
	// Pack scratch reused across every multi-block send of the
	// schedule: the eager transport copies the payload before Send
	// returns, so the next step may overwrite it.
	var ex execScratch
	permute(blocks, s.InPerm)
	for _, round := range s.Rounds {
		// Post every send of the round first; the eager transport
		// copies the payload, so later reduce steps may mutate the
		// same blocks without corrupting in-flight messages.
		for _, st := range round {
			if st.Op != OpSend {
				continue
			}
			if err := tp.Send(st.Peer, ex.packStep(blocks, st.Blks)); err != nil {
				return err
			}
		}
		for _, st := range round {
			if st.Op == OpSend {
				continue
			}
			data, err := tp.Recv(st.Peer)
			if err != nil {
				return err
			}
			if err := applyRecv(s, blocks, st, data, op, rel); err != nil {
				return err
			}
		}
	}
	permute(blocks, s.OutPerm)
	return nil
}

// execScratch holds the reusable multi-block packing buffers of one
// Exec invocation.
type execScratch struct {
	buf   []byte
	parts [][]byte
}

// packStep builds the wire payload for a send step: no blocks → empty
// payload, one block → the raw block, several → length-prefix packed
// into the reused scratch (grown once, then allocation-free).
func (ex *execScratch) packStep(blocks [][]byte, blks []int) []byte {
	switch len(blks) {
	case 0:
		return nil
	case 1:
		return blocks[blks[0]]
	}
	if cap(ex.parts) < len(blks) {
		ex.parts = make([][]byte, len(blks))
	}
	parts := ex.parts[:len(blks)]
	for i, b := range blks {
		parts[i] = blocks[b]
	}
	if need := enc.PackedLen(parts); cap(ex.buf) < need {
		ex.buf = make([]byte, 0, need)
	}
	ex.buf = enc.PackSlicesInto(ex.buf[:0], parts)
	return ex.buf
}

// applyRecv consumes one received payload. Payloads that are folded or
// discarded are handed back to the transport's pool via rel; payloads
// installed into the block table are retained and must NOT be
// released.
func applyRecv(s *Schedule, blocks [][]byte, st Step, data []byte, op ReduceFn, rel Releaser) error {
	release := func() {
		if rel != nil {
			rel.Release(data)
		}
	}
	if st.Op == OpRecvReduce {
		if len(st.Blks) != 1 {
			release()
			return fmt.Errorf("coll: %s: reduce step needs exactly one block, got %d", s, len(st.Blks))
		}
		if op == nil {
			release() // pure synchronisation (barrier / agreement waves)
			return nil
		}
		b := st.Blks[0]
		if len(data) != len(blocks[b]) {
			release()
			return fmt.Errorf("coll: %s: rank %d received a %d-byte reduce contribution from rank %d, want %d — reductions require equal-length buffers on every rank",
				s, s.Rank, len(data), st.Peer, len(blocks[b]))
		}
		op(blocks[b], data)
		release() // contribution folded; the bytes are dead
		return nil
	}
	switch len(st.Blks) {
	case 0:
		release() // synchronisation payload, discard
		return nil
	case 1:
		blocks[st.Blks[0]] = data // retained
		if rel != nil {
			rel.Detach(data)
		}
		return nil
	}
	parts, err := enc.UnpackSlices(data)
	if err != nil {
		release()
		return fmt.Errorf("coll: %s: from rank %d: %w", s, st.Peer, err)
	}
	if len(parts) != len(st.Blks) {
		release()
		return fmt.Errorf("coll: %s: rank %d expected %d packed blocks from rank %d, got %d",
			s, s.Rank, len(st.Blks), st.Peer, len(parts))
	}
	for i, b := range st.Blks {
		blocks[b] = parts[i] // parts alias data: retained
	}
	if rel != nil {
		rel.Detach(data)
	}
	return nil
}

func permute(blocks [][]byte, perm []int) {
	if perm == nil {
		return
	}
	tmp := make([][]byte, len(blocks))
	for i, p := range perm {
		tmp[i] = blocks[p]
	}
	copy(blocks, tmp)
}
