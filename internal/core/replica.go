package core

import (
	"encoding/binary"
	"fmt"

	"fmi/internal/transport"
)

// Replication-based recovery (ISSUE 7, after FTHP-MPI): every rank is
// a primary/shadow pair on distinct nodes, both executing the same
// deterministic application. Sends resolve through the shared replica
// registry and are mirrored to both endpoints of the destination
// pair; since the pair executes in lockstep, each receiver endpoint
// gets two identically-sequenced copies of every message and the
// matcher's arrival watermarks suppress the second. A primary node
// death is then masked by flipping the registry entry to the shadow —
// no epoch bump, no rollback, no replay — and the runtime
// re-provisions a fresh shadow from a spare in the background, synced
// from the primary's live state via a direct snapshot send.
//
// Replica mode requires an explicit checkpoint interval (the MTBF
// auto-tuner feeds on wall-clock measurements, which diverge between
// the two copies and would desynchronise the pair) and one rank per
// node (so a node death maps to exactly one pair member). Both are
// validated at Launch.

// replicaOn reports whether replicated routing is in force. The flag
// is pinned to the INSTALLED generation, not read live from the
// registry: a replica generation has no endpoint table, so a send that
// observed a mid-collective Deactivate must still resolve through the
// registry (whose Lookup now fails with ErrFailureDetected, aborting
// the collective cleanly) rather than fall into the plain path and
// index an empty table. The proc switches paths only at the rebuild
// boundary, when buildGeneration installs a plain generation for the
// degraded epoch.
func (p *Proc) replicaOn() bool {
	return p.gen != nil && p.gen.replica
}

// promotedSelf reports whether THIS process is the promoted shadow now
// acting as its rank's primary. Registry.Promoted is a seat property
// and stays true once a replacement shadow occupies the seat again, so
// every per-process decision (registration side, sync serving, fence
// observer status, degrade parking) must key by the incarnation this
// process registered under. The repRegistered guard keeps a process
// that has never registered from matching: a fresh replacement's
// zero-value repInc would otherwise collide with a promoted launch
// shadow's incarnation 0 and steal the seat's primary slot.
func (p *Proc) promotedSelf() bool {
	return p.cfg.Shadow && p.cfg.Replica != nil && p.repRegistered &&
		p.cfg.Replica.PromotedSelf(p.rank, p.repInc)
}

// actingShadow reports whether this process runs as its rank's shadow:
// launched or re-provisioned as one and not promoted since.
func (p *Proc) actingShadow() bool {
	return p.cfg.Shadow && !p.promotedSelf()
}

// sendReplica is sendFrame's replica-mode path: one sequence number per
// destination rank, the same Msg sent to both endpoints of the pair.
// Transports copy an unowned payload at Send, so the double send shares
// one buffer safely; an owned frame goes to one endpoint as it is and
// to the other as one copy.
func (p *Proc) sendReplica(world int, ctx uint32, tag int32, kind byte, payload []byte, owned bool) error {
	if world < 0 || world >= p.n {
		if owned {
			p.pool.Put(payload)
		}
		return fmt.Errorf("%w: %d", ErrInvalidRank, world)
	}
	prim, shad, inc, ok := p.cfg.Replica.LookupInc(world)
	if !ok {
		if owned {
			p.pool.Put(payload)
		}
		if !p.cfg.Replica.Active() {
			// A pair loss is degrading the job; the epoch bump that
			// hands the failure to rollback recovery is on its way.
			// Wait for it, or the caller's retry (Loop re-entering the
			// checkpoint) spins on the dead registry until it lands.
			select {
			case <-p.gen.failureCh:
			case <-p.cfg.KillCh:
				p.die()
			}
		}
		return ErrFailureDetected
	}
	if inc != p.flipAck[world] {
		// First send after a replacement shadow registered for world:
		// fence the flip before this (mirrored) send resolves, so the
		// fence is exactly the last sequence number the replacement will
		// never see directly.
		p.cfg.Replica.AckShadow(world, p.rank, inc, p.repSeq[world])
		p.flipAck[world] = inc
	}
	p.repSeq[world]++
	msg := transport.Msg{
		Src:   int32(p.rank),
		Tag:   tag,
		Ctx:   ctx,
		Epoch: p.epoch,
		View:  p.viewVersion(),
		Seq:   p.repSeq[world],
		Kind:  kind,
		Flags: keepFlag(kind),
		Data:  payload,
	}
	mirror := msg
	if owned {
		// The primary takes the frame itself; the shadow's copy is made
		// before the primary's Send, which may release the frame.
		if shad != transport.NilAddr {
			mirror.Data = p.pool.Get(len(payload))
			copy(mirror.Data, payload)
			mirror.Handoff(p.pool)
		}
		msg.Handoff(p.pool)
	}
	err := p.gen.ep.Send(prim, msg)
	if shad != transport.NilAddr {
		if err2 := p.gen.ep.Send(shad, mirror); err == nil {
			err = err2
		}
	}
	return err
}

// registryRendezvous is active replica mode's rendezvous: no H1 tree
// exchange, no H2 ring — endpoints register with the registry instead,
// and failure *notification* is the control plane only (masked failures
// never notify; a pair loss deactivates the registry and bumps the
// epoch, after which the rollback rendezvous takes over).
func (p *Proc) registryRendezvous(g *generation, cancel <-chan struct{}) error {
	g.replica = true
	reg := p.cfg.Replica
	// A promoted shadow IS its rank's primary now: across a view-change
	// fence it re-registers on the primary side of the pair. The check
	// is per-process (incarnation-keyed), not per-seat: a replacement
	// shadow provisioned after the promotion also sees a promoted seat
	// but must register — and keep acting — as the shadow.
	if p.actingShadow() {
		p.repInc = reg.SetShadow(p.rank, g.ep.Addr(), p.syncPending)
		p.repRegistered = true
	} else {
		reg.SetPrimary(p.rank, g.ep.Addr())
	}
	// The replicated analogue of the bootstrap barrier: every pair
	// fully registered before any send resolves.
	return reg.Ready(cancel)
}

// syncSnapshot is a primary's full live state, shipped to a
// re-provisioned shadow: the application segments as of the top of
// the current Loop iteration, the runtime counters that keep the pair
// scheduling checkpoints in lockstep, and the messaging state (send
// sequences, receive watermarks, accepted-but-unconsumed queue) that
// splices the shadow into the mirrored streams without loss or
// duplication.
type syncSnapshot struct {
	LoopID   int
	LastCkpt int
	L1Count  int
	Interval int
	NextCtx  uint32
	CommSeq  int
	Segs     [][]byte
	Msg      msgState
}

func encodeSyncSnapshot(s syncSnapshot) []byte {
	var out []byte
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	put32(uint32(s.LoopID))
	put32(uint32(s.LastCkpt))
	put32(uint32(s.L1Count))
	put32(uint32(s.Interval))
	put32(s.NextCtx)
	put32(uint32(s.CommSeq))
	put32(uint32(len(s.Segs)))
	for _, seg := range s.Segs {
		put32(uint32(len(seg)))
		out = append(out, seg...)
	}
	// The messaging state is the trailing component (its codec is
	// self-describing from the front).
	return append(out, encodeMsgState(s.Msg)...)
}

func decodeSyncSnapshot(data []byte) (syncSnapshot, error) {
	var s syncSnapshot
	bad := fmt.Errorf("fmi: truncated shadow sync snapshot")
	get32 := func() (uint32, error) {
		if len(data) < 4 {
			return 0, bad
		}
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		return v, nil
	}
	vals := make([]uint32, 7)
	for i := range vals {
		v, err := get32()
		if err != nil {
			return s, err
		}
		vals[i] = v
	}
	s.LoopID = int(int32(vals[0]))
	s.LastCkpt = int(int32(vals[1]))
	s.L1Count = int(vals[2])
	s.Interval = int(vals[3])
	s.NextCtx = vals[4]
	s.CommSeq = int(int32(vals[5]))
	s.Segs = make([][]byte, vals[6])
	for i := range s.Segs {
		n, err := get32()
		if err != nil {
			return s, err
		}
		if len(data) < int(n) {
			return s, bad
		}
		s.Segs[i] = make([]byte, n)
		copy(s.Segs[i], data[:n])
		data = data[n:]
	}
	st, err := decodeMsgState(data)
	if err != nil {
		return s, err
	}
	s.Msg = st
	return s, nil
}

// ackShadowFlips records this copy's flip fence for every destination
// whose shadow incarnation advanced since the last sweep. Senders also
// ack inline in sendReplica (before their first mirrored send); this
// per-Loop sweep covers ranks that happen not to send to the flipped
// destination, so the primary's fence wait in serveShadowSync always
// terminates within about one iteration. A shadow that is itself
// awaiting its sync snapshot must not ack: its stream only begins at
// the snapshot's sequence numbers, so until those are adopted its
// repSeq would understate the fence.
func (p *Proc) ackShadowFlips() {
	reg := p.cfg.Replica
	gen := reg.ShadowGen()
	if gen == p.flipGen {
		return
	}
	for dst := 0; dst < p.n; dst++ {
		if inc := reg.ShadowInc(dst); inc != p.flipAck[dst] {
			reg.AckShadow(dst, p.rank, inc, p.repSeq[dst])
			p.flipAck[dst] = inc
		}
	}
	p.flipGen = gen
}

// serveShadowSync runs on the acting primary at the top of every Loop
// iteration: if a re-provisioned shadow has requested state, capture
// a snapshot and send it directly (never mirrored) to the shadow's
// endpoint. The capture point — before this iteration's checkpoint
// decision — makes the snapshot consistent: every message consumed so
// far shaped the segments; everything else is in the queue snapshot
// or above the watermarks.
//
// The capture is deferred until every sender has acknowledged its flip
// fence AND this matcher's arrival watermarks cover the fences. Until
// then a message sent before the sender began mirroring could still be
// in flight toward this endpoint only — invisible to both the snapshot
// and the replacement — leaving a sequence gap in the replacement's
// stream. Serving waits (retrying at each Loop top) rather than risk
// shipping an uncoverable snapshot.
func (p *Proc) serveShadowSync(segs [][]byte) {
	reg := p.cfg.Replica
	if !reg.SyncPending(p.rank) {
		return
	}
	fences, ok := reg.SyncFences(p.rank)
	if !ok {
		return // some sender has not fenced the flip yet
	}
	have := p.gen.m.SeenVector()
	for s, f := range fences {
		if s == p.rank {
			continue
		}
		if s < len(have) {
			if have[s] < f {
				return // pre-flip traffic still in flight toward us
			}
		} else if f > 0 {
			return
		}
	}
	addr, ok := reg.TakeSyncRequest(p.rank)
	if !ok {
		return
	}
	seen, queue := p.gen.m.HarvestState()
	blob := encodeSyncSnapshot(syncSnapshot{
		LoopID:   p.loopID,
		LastCkpt: p.lastCkpt,
		L1Count:  p.l1Count,
		Interval: p.interval,
		NextCtx:  p.nextCtx,
		CommSeq:  p.commSeq,
		Segs:     segs,
		Msg: msgState{
			SendSeqs: append([]uint64(nil), p.repSeq...),
			Seen:     seen,
			Queue:    queue,
		},
	})
	//fmilint:ignore faulterr a snapshot lost to the shadow's death is repaired by the next re-provision round, which re-arms the request
	_ = p.gen.ep.Send(addr, transport.Msg{
		Src:   int32(p.rank),
		Tag:   tagShadowSync,
		Ctx:   ctxWorld,
		Epoch: p.epoch,
		Kind:  transport.KindCtl,
		Data:  blob,
	})
}

// applyShadowSync runs on a re-provisioned shadow at its first Loop
// call: block for the primary's snapshot, copy it into the application
// segments, adopt the runtime counters, and splice into the mirrored
// message streams (adoptMsgState): seeding the snapshot's watermarks
// drops the stale copies this shadow queued before the snapshot was
// harvested (they are inside the snapshot queue already) and files the
// held frames that now continue the streams; Inject restores the
// primary's unconsumed set. Messages racing the harvest are either at
// or below the snapshot watermarks (suppressed on arrival here) or
// above them (delivered fresh) — exactly-once either way.
//
// Messages sent before a sender flipped to mirroring go only to the
// primary and can still be in TCP flight when the snapshot would be
// harvested; the flip fence (see serveShadowSync and ackShadowFlips)
// defers the harvest until the primary's arrival watermarks cover
// every sender's last un-mirrored sequence number, so the snapshot
// plus the mirrored stream leave no gap at this endpoint.
func (p *Proc) applyShadowSync(segs [][]byte) {
	msg, err := p.gen.m.Recv(ctxWorld, int32(p.rank), tagShadowSync, p.gen.cancelCh)
	if err != nil {
		p.checkAlive()
		if p.cfg.Replica.Active() {
			// The epoch advanced under us — a view-change fence committed
			// while the snapshot was pending — but the job is still
			// replicated: rebuild into the new view (re-registering the
			// sync request) and re-drive the pull from Loop.
			p.recover()
			return
		}
		// Degraded (or killed) while waiting: an unsynced shadow has no
		// seat in the rolled-back world — park until the runtime reaps it.
		<-p.cfg.KillCh
		p.die()
	}
	snap, derr := decodeSyncSnapshot(msg.Data)
	msg.Release()
	if derr != nil {
		p.fatal(fmt.Errorf("%w: shadow sync: %v", ErrUnrecoverable, derr))
	}
	if len(snap.Segs) != len(segs) {
		p.fatal(fmt.Errorf("%w: shadow sync: %d segments, primary sent %d", ErrUnrecoverable, len(segs), len(snap.Segs)))
	}
	for i, seg := range snap.Segs {
		if len(seg) != len(segs[i]) {
			p.fatal(fmt.Errorf("%w: shadow sync: segment %d is %d B, primary sent %d B", ErrUnrecoverable, i, len(segs[i]), len(seg)))
		}
		copy(segs[i], seg)
	}
	p.loopID = snap.LoopID
	p.lastCkpt = snap.LastCkpt
	p.l1Count = snap.L1Count
	p.interval = snap.Interval
	p.nextCtx = snap.NextCtx
	p.commSeq = snap.CommSeq
	copy(p.repSeq, snap.Msg.SendSeqs)
	adoptMsgState(p.gen.m, p.n, snap.Msg)
	p.ckptSeeded = true
	p.syncPending = false
	p.cfg.Replica.MarkSynced(p.rank, p.l1Count)
}
