package core

import (
	"encoding/binary"
	"fmt"

	"fmi/internal/transport"
)

// msgState is the receive-side messaging state captured with a local
// -mode checkpoint: the sender log's sequence counters, the matcher's
// per-source ingress watermarks, and the sequenced messages accepted
// into the unexpected queue but not yet consumed. A respawned rank
// restores all three so its re-execution reproduces the original
// sequence numbers (duplicate sends suppressed at the receivers) and
// resumes with exactly the messages the failed incarnation held.
//
// The blob is replicated across the checkpoint group alongside the
// size/shape meta rather than parity-encoded: a replacement's state
// diverges from the original the moment it re-executes, so folding it
// into the parity chain would corrupt the group's consistency for a
// later failure.
type msgState struct {
	Era      uint32 // log era: bumped on every level-2 fallback (global reset)
	SendSeqs []uint64
	Seen     []uint64
	Queue    []transport.Msg
}

func encodeMsgState(st msgState) []byte {
	var out []byte
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	put64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
	}
	put32(st.Era)
	put32(uint32(len(st.SendSeqs)))
	for _, s := range st.SendSeqs {
		put64(s)
	}
	put32(uint32(len(st.Seen)))
	for _, s := range st.Seen {
		put64(s)
	}
	put32(uint32(len(st.Queue)))
	for _, m := range st.Queue {
		put32(uint32(m.Src))
		put32(uint32(m.Tag))
		put32(m.Ctx)
		put64(m.Seq)
		out = append(out, m.Kind, m.Flags)
		put32(uint32(len(m.Data)))
		out = append(out, m.Data...)
	}
	return out
}

func decodeMsgState(data []byte) (msgState, error) {
	var st msgState
	bad := fmt.Errorf("fmi: truncated message state")
	get32 := func() (uint32, error) {
		if len(data) < 4 {
			return 0, bad
		}
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		return v, nil
	}
	get64 := func() (uint64, error) {
		if len(data) < 8 {
			return 0, bad
		}
		v := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return v, nil
	}
	era, err := get32()
	if err != nil {
		return st, err
	}
	st.Era = era
	n, err := get32()
	if err != nil {
		return st, err
	}
	st.SendSeqs = make([]uint64, n)
	for i := range st.SendSeqs {
		if st.SendSeqs[i], err = get64(); err != nil {
			return st, err
		}
	}
	if n, err = get32(); err != nil {
		return st, err
	}
	st.Seen = make([]uint64, n)
	for i := range st.Seen {
		if st.Seen[i], err = get64(); err != nil {
			return st, err
		}
	}
	if n, err = get32(); err != nil {
		return st, err
	}
	st.Queue = make([]transport.Msg, n)
	for i := range st.Queue {
		m := &st.Queue[i]
		var v uint32
		if v, err = get32(); err != nil {
			return st, err
		}
		m.Src = int32(v)
		if v, err = get32(); err != nil {
			return st, err
		}
		m.Tag = int32(v)
		if m.Ctx, err = get32(); err != nil {
			return st, err
		}
		if m.Seq, err = get64(); err != nil {
			return st, err
		}
		if len(data) < 2 {
			return st, bad
		}
		m.Kind, m.Flags = data[0], data[1]
		data = data[2:]
		if v, err = get32(); err != nil {
			return st, err
		}
		if len(data) < int(v) {
			return st, bad
		}
		if v > 0 {
			m.Data = make([]byte, v)
			copy(m.Data, data[:v])
			data = data[v:]
		}
	}
	return st, nil
}

// captureMsgState snapshots this rank's messaging state (local mode
// only: nil without a sender log). Taken on the application thread at
// checkpoint-capture time, so it is consistent with the user segments:
// every message consumed before this point influenced the captured
// segments; everything after is either in the queue snapshot or above
// the seen watermarks (and therefore replayable).
func (p *Proc) captureMsgState() (blob []byte, seen []uint64) {
	if p.log == nil {
		return nil, nil
	}
	seen, queue := p.gen.m.HarvestState()
	return encodeMsgState(msgState{
		Era:      p.logEra,
		SendSeqs: p.log.SendSeqs(),
		Seen:     seen,
		Queue:    queue,
	}), seen
}

// adoptMsgState splices a handed-over receive state into matcher m for
// a world of n ranks: seed the watermarks (which purges whatever they
// already cover), then inject the accepted-but-unconsumed messages
// below them. One path for the three hand-overs: a survivor's carry
// across a fence, a respawned rank's checkpointed state, and a
// primary's snapshot spliced into a re-provisioned shadow.
func adoptMsgState(m *transport.Matcher, n int, st msgState) {
	m.Seed(n, st.Seen)
	m.Inject(st.Queue)
}
