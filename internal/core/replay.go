package core

import (
	"encoding/binary"
	"fmt"

	"fmi/internal/msglog"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

func encodeSeqVec(v []uint64) []byte {
	out := make([]byte, 8*len(v))
	for i, s := range v {
		binary.LittleEndian.PutUint64(out[8*i:], s)
	}
	return out
}

func decodeSeqVec(data []byte) []uint64 {
	v := make([]uint64, len(data)/8)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return v
}

// replayExchange is the localized-recovery replay round, run by every
// rank at the end of the epoch's restore negotiation. Each rank
// publishes its receive watermarks ("the highest sequenced message I
// hold from each of you"); every sender then re-transmits the logged
// entries each receiver is missing — a respawned rank's re-execution
// receives them as if nothing happened, and a survivor recovers
// messages that were in flight to its torn-down endpoint during the
// fence. Replays go out before the H3 barrier releases application
// traffic, so per-pair FIFO ordering places them ahead of all
// post-recovery sends.
func (p *Proc) replayExchange() error {
	coord := p.cfg.Ctl.Coordinator()
	cancel := p.gen.cancelCh
	key := fmt.Sprintf("replay/%d", p.epoch)
	vals, err := coord.AllGather(key, p.rank, p.n, encodeSeqVec(p.gen.m.SeenVector()), cancel)
	if err != nil {
		return ErrFailureDetected
	}
	// The replay sends straight from the log's chunks; every send copies
	// its payload before returning, and the log is trimmed only on this
	// thread, so no chunk is recycled under it.
	plan := make([][]msglog.Entry, p.n)
	total := 0
	for dst := 0; dst < p.n; dst++ {
		if dst == p.rank {
			continue
		}
		want := decodeSeqVec(vals[dst])
		if p.rank >= len(want) {
			continue
		}
		ents := p.log.After(dst, want[p.rank])
		plan[dst] = ents
		total += len(ents)
	}
	if total == 0 {
		return nil
	}
	p.cfg.Trace.Add(trace.KindReplayStart, p.rank, p.epoch, "replaying %d logged message(s)", total)
	for dst, ents := range plan {
		if len(ents) == 0 {
			continue
		}
		addr, err := p.addrOf(dst)
		if err != nil {
			continue
		}
		for _, e := range ents {
			// Direct endpoint send: the entry is already logged (same
			// sequence number), and the receiver's watermark filters it
			// if the original actually arrived. Send errors only when
			// *this* endpoint is closed, which means this rank is being
			// torn down — the kill channel, not the error, is the signal.
			//fmilint:ignore faulterr replay resends are fire-and-forget; drops to dead peers are silent (PSM) and a closed own endpoint is surfaced via KillCh
			p.gen.ep.Send(addr, transport.Msg{
				Src:   int32(p.rank),
				Tag:   e.Tag,
				Ctx:   e.Ctx,
				Epoch: p.epoch,
				View:  p.viewVersion(),
				Seq:   e.Seq,
				Kind:  e.Kind,
				Flags: transport.FlagReplay | keepFlag(e.Kind),
				Data:  e.Data,
			})
		}
	}
	p.cfg.Trace.Add(trace.KindReplayDone, p.rank, p.epoch, "replayed %d message(s)", total)
	p.cfg.Stats.AddReplay(total)
	return nil
}

// trimRound is one checkpoint's log-trim all-gather this rank has
// contributed to but not yet applied.
type trimRound struct {
	key     string
	n       int
	l1Count int
	val     []byte // this rank's contribution: its watermarks at the capture
}

// trimLog garbage-collects the sender log at a checkpoint commit, on
// the application thread: entries every receiver's committed
// checkpoint acknowledges can never be replayed again. The rank
// contributes its watermarks at this checkpoint's capture to the
// checkpoint's trim round, then applies the newest round every rank
// has contributed to and drops the older ones it subsumes. The
// previous checkpoint's round is always complete by then — no rank
// commits a checkpoint before every rank committed the one before — so
// at a commit the log holds about one checkpoint interval of traffic.
// After a failure a round completes when the respawned rank
// re-executes the checkpoint exchange and contributes again. The key
// is scoped by the log era so a level-2 fallback (which rolls l1Count
// back, and drops the pending rounds) can never mix a fresh round with
// stale pre-fallback contributions.
func (p *Proc) trimLog(l1Count int, seen []uint64) {
	p.trims = append(p.trims, trimRound{
		key: fmt.Sprintf("trim/%d/%d", p.logEra, l1Count), n: p.n, l1Count: l1Count, val: encodeSeqVec(seen),
	})
	coord := p.cfg.Ctl.Coordinator()
	for i := len(p.trims) - 1; i >= 0; i-- {
		t := p.trims[i]
		vals, ok := coord.TryAllGather(t.key, p.rank, t.n, t.val)
		if !ok {
			continue
		}
		p.trims = append(p.trims[:0], p.trims[i+1:]...)
		acked := make([]uint64, t.n)
		// A checkpoint re-committed after recovery reuses its trim key,
		// and the world may have resized since the original round
		// completed: the cached gather result can be shorter than the
		// round's n. Ranks missing from it simply ack nothing — trimming
		// less is always safe.
		for dst := 0; dst < t.n && dst < len(vals); dst++ {
			if dst == p.rank {
				continue
			}
			v := decodeSeqVec(vals[dst])
			if p.rank < len(v) {
				acked[dst] = v[p.rank]
			}
		}
		if ents, bytes := p.log.Trim(acked); ents > 0 {
			p.cfg.Trace.Add(trace.KindLogTrim, p.rank, p.epoch,
				"released %d entr(ies), %d B (checkpoint %d committed everywhere)", ents, bytes, t.l1Count)
		}
		return
	}
}
