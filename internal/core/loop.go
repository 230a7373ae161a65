package core

import (
	"errors"
	"fmt"
	"time"

	"fmi/internal/bootstrap"
	"fmi/internal/ckpt"
	"fmi/internal/model"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

// Loop is FMI_Loop (paper §III-B): the single call that makes an
// application fault tolerant. It synchronises checkpointing, writes
// in-memory XOR-encoded checkpoints of the registered segments at the
// configured (or MTBF-auto-tuned) interval, and — when a failure has
// been notified — drives the H1/H2 recovery, restores the last good
// checkpoint into the segments, and returns the loop id it restored.
// In the failure-free path it returns the incrementing loop id.
func (p *Proc) Loop(segs [][]byte) int {
	p.checkAlive()
	if p.finalize {
		panic("fmi: Loop after Finalize")
	}
	if p.ranLoop {
		p.iterEWMA = ewma(p.iterEWMA, time.Since(p.lastLoopAt))
	}
	p.ranLoop = true
	for {
		if p.gen.failed() {
			p.recover()
			continue
		}
		if p.replicaOn() {
			if p.syncPending {
				// Re-provisioned shadow: pull the primary's live state,
				// then fall through to the normal schedule in lockstep.
				p.applyShadowSync(segs)
			} else if !p.cfg.Shadow || p.promotedSelf() {
				// Acting primary: serve a pending replacement-shadow
				// state request before this iteration's checkpoint
				// decision, so the snapshot point is well defined. While
				// a resize fence is armed no NEW sync starts — the shadow
				// re-syncs under the post-fence view instead, keeping the
				// fence's cut point well defined.
				if p.viewCtl == nil || p.viewCtl.ResizePending() == 0 {
					p.serveShadowSync(segs)
				}
			}
			// Fence any shadow flips that registered since the last
			// iteration (after applyShadowSync, so a fresh replacement
			// acks with its adopted — not zero — send counters).
			p.ackShadowFlips()
		}
		// Apply a restore negotiated during recovery (or during Init
		// for a replacement process): a local memcpy back into the
		// registered segments, returning the restored loop id.
		if p.pendingID >= 0 && !p.pendingApplied {
			id, err := p.applyRestore(segs)
			if err != nil {
				p.fatal(err)
			}
			if p.reexecPending {
				// Sender-based logging (local mode): the messaging state
				// was captured at the top of the restore checkpoint, so a
				// replacement re-executes the checkpoint exchange itself.
				// That deterministically regenerates every message the
				// dead incarnation sent after capture — ring shards, group
				// meta, the agree wave — under the original sequence
				// numbers: survivors that consumed the originals suppress
				// the copies, while a survivor still blocked on a message
				// lost with the dead rank (e.g. the commit broadcast)
				// finally receives it. It also re-arms the double buffer
				// and contributes this rank's pending log-trim round.
				p.reexecPending = false
				p.l1Count-- // checkpoint() re-increments to the captured value
				p.reexec = true
				err := p.checkpoint(id, segs)
				p.reexec = false
				if err != nil {
					p.fatal(err)
				}
			}
			p.cfg.Stats.AddLostIterations(p.loopID - (id + 1))
			p.loopID = id + 1
			p.lastLoopAt = time.Now()
			p.cfg.Ctl.ReportLoop(p.rank, id)
			return id
		}
		// Resize fence: while a grow/shrink is armed every rank reports
		// its position here, at the top of an iteration — the only point
		// where no collective or checkpoint is in flight — and parks once
		// it reaches the agreed cut loop.
		if p.joinFence() {
			continue
		}
		id := p.loopID
		if p.needCheckpoint(id) {
			if err := p.checkpoint(id, segs); err != nil {
				continue // failure during C/R: recover on next pass
			}
		}
		// Application code runs next: from here on this rank's state can
		// diverge from the fence cut, so a later failure must negotiate
		// a rollback rather than ride the clean-fence fast path.
		p.fenceClean = false
		p.loopID++
		p.lastLoopAt = time.Now()
		p.cfg.Ctl.ReportLoop(p.rank, id)
		return id
	}
}

// joinFence participates in an armed resize fence. Phase 1: each Loop
// iteration below the cut acknowledges its position and proceeds.
// Phase 2: at the cut loop the rank parks until every participant
// arrives and the runtime commits the new view atomically. Returns true
// when the caller must restart the loop pass — the fence committed and
// this rank just recovered into the new view.
func (p *Proc) joinFence() bool {
	if p.viewCtl == nil {
		return false
	}
	ticket := p.viewCtl.ResizePending()
	if ticket == 0 {
		return false
	}
	observer := p.cfg.Shadow && p.cfg.Replica != nil && !p.promotedSelf()
	out, err := p.viewCtl.JoinResize(ticket, p.rank, p.loopID, observer, p.cfg.KillCh)
	if err != nil {
		p.checkAlive()
		p.fatal(err)
	}
	if out.Retired {
		// This rank's seat is removed by a shrink: its state has been
		// captured in the pre-fence checkpoint wave; park until the
		// runtime reaps the process.
		p.cfg.Trace.Add(trace.KindState, p.rank, p.epoch, "retired by shrink fence")
		<-p.cfg.KillCh
		p.die()
	}
	if out.View != nil {
		// Fence committed: rebuild into the new view. Recover explicitly
		// rather than waiting for gen.failed() — the commit's epoch bump
		// reaches the failure watcher asynchronously. This survivor's
		// state sits exactly at the cut, so the restore negotiation can
		// skip the rollback if every other rank is equally clean.
		p.fenceClean = true
		p.recover()
		return true
	}
	return false
}

// fatal reports an unrecoverable condition and waits for the manager
// to kill the job. A kill-cancelled epoch wait (the error wraps
// ErrKilled) is this process dying, not a job failure: unwind without
// aborting the job, exactly like every other blocking call observing
// KillCh.
func (p *Proc) fatal(err error) {
	if !errors.Is(err, ErrKilled) {
		p.cfg.Ctl.Abort(err)
	}
	<-p.cfg.KillCh
	p.die()
}

// recover drives the Fig 5 Notified transition: wait for the manager
// to open a new epoch, then rebuild H1/H2 and renegotiate the restore
// point, retrying while further failures interrupt.
func (p *Proc) recover() {
	start := time.Now()
	next, err := p.cfg.Ctl.AwaitEpoch(p.epoch+1, p.killCh())
	if err != nil {
		p.fatal(err)
	}
	p.epoch = next
	if err := p.rebuildUntilStable(); err != nil {
		p.fatal(err)
	}
	p.state = StateRunning
	p.cfg.Trace.Add(trace.KindState, p.rank, p.epoch, "H3 running")
	if p.rank == 0 {
		p.cfg.Stats.AddRecovery(time.Since(start))
	}
}

// applyRestore copies the negotiated snapshot back into the user
// segments and adopts the checkpointed runtime counters.
func (p *Proc) applyRestore(segs [][]byte) (int, error) {
	e := p.committed
	if e == nil || e.Snap.LoopID != p.pendingID {
		return 0, fmt.Errorf("%w: rank %d has no checkpoint for loop %d", ErrUnrecoverable, p.rank, p.pendingID)
	}
	rs := time.Now()
	if err := e.Snap.Restore(segs); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	p.cfg.Trace.Add(trace.KindRestore, p.rank, p.epoch, "restored checkpoint %d into %d segment(s)", e.Snap.LoopID, len(segs))
	p.nextCtx = e.NextCtx
	p.commSeq = e.CommSeq
	p.l1Count = e.L1Count
	p.lastCkpt = e.Snap.LoopID
	p.pendingApplied = true
	p.cfg.Stats.AddRestore(time.Since(rs))
	p.cfg.Trace.Add(trace.KindRollback, p.rank, p.epoch, "rolled back to loop %d", e.Snap.LoopID)
	return e.Snap.LoopID, nil
}

// needCheckpoint applies the paper's rule: the first Loop call always
// checkpoints; afterwards every interval-th iteration does.
func (p *Proc) needCheckpoint(id int) bool {
	// First iteration after a committed view change: every rank
	// checkpoints immediately so the shards re-encode over the new
	// groups (the shard-migration step of a resize).
	if p.viewCkpt {
		return true
	}
	if p.latest() == nil && !p.ckptSeeded {
		return true
	}
	// A shadow that adopted its counters from a sync snapshot has no
	// entry yet but must stay in lockstep with its primary: it neither
	// checkpoints ahead of schedule (the group exchange is collective —
	// alone it would deadlock) nor skips a scheduled wave (every
	// exchange send bumps the mirrored sequence numbers, so sitting one
	// out would desynchronise the pair's streams for good). The adopted
	// lastCkpt/interval put it on exactly the primary's schedule.
	return id-p.lastCkpt >= p.interval
}

// tuneInterval applies Vaidya's model to the measured iteration and
// checkpoint costs (paper §III-B: "FMI dynamically auto-tunes the
// checkpoint interval to maximize efficiency according to the MTBF
// based on Vaidya's model").
func (p *Proc) tuneInterval() int {
	if p.ckptEWMA == 0 || p.iterEWMA == 0 || p.cfg.MTBF == 0 {
		return p.interval
	}
	return model.VaidyaIterations(p.ckptEWMA, p.cfg.MTBF, p.iterEWMA)
}

// negotiateRestore is the epoch's restore agreement, run at the end of
// every generation build: all ranks publish the newest checkpoint they
// hold, agree on the rollback point (the newest id available on every
// survivor), and each XOR group containing a replaced rank
// reconstructs its checkpoint (paper Fig 11: decode + gather).
func (p *Proc) negotiateRestore() error {
	coord := p.cfg.Ctl.Coordinator()
	cancel := p.gen.cancelCh
	key := fmt.Sprintf("avail/%d", p.epoch)
	vals, err := coord.AllGather(key, p.rank, p.n, encodeAvail(p.availNow()), cancel)
	if err != nil {
		return ErrFailureDetected
	}
	infos := make([]availInfo, p.n)
	for r, v := range vals {
		infos[r] = decodeAvail(v)
	}

	restoreID := -2
	// allClean: every rank is either a survivor parked exactly at a
	// committed fence cut or a fresh grow joiner — a clean view change
	// with nobody lost and no app progress since the cut. Any
	// replacement (somebody died) or any rank that resumed application
	// code since the fence makes a rollback necessary: a spurious epoch
	// bump mid-iteration leaves ranks divergent even though no process
	// was replaced.
	allClean := true
	for _, in := range infos {
		if in.IsReplacement {
			allClean = false
			continue
		}
		if in.Fresh {
			// A joiner provisioned by a grow fence holds no checkpoint
			// and must not drag the agreed restore point to -1.
			continue
		}
		if !in.Clean {
			allClean = false
		}
		if restoreID == -2 || int(in.AvailID) < restoreID {
			restoreID = int(in.AvailID)
		}
	}
	// amFresh: this process is a replacement that has not yet restored.
	// In local mode only fresh replacements roll back; survivors keep
	// their live state and merely serve replay.
	amFresh := infos[p.rank].IsReplacement
	if restoreID <= -1 || allClean {
		// Nothing to repair: either the failure hit before the first
		// checkpoint completed anywhere (replacements start fresh), or
		// this is a clean view-change fence — grow/shrink with no rank
		// lost — where survivors keep their live state and never roll
		// back. In local mode survivors still replay their logs so a
		// restarted rank's re-execution receives what it missed.
		if infos[p.rank].Fresh {
			// Fresh joiner: align the checkpoint ordinal, interval, and
			// logging era with the survivors so the level-2 cadence and
			// the log-trim keys stay globally agreed.
			for _, in := range infos {
				if in.Fresh || in.IsReplacement {
					continue
				}
				if int(in.L1Count) > p.l1Count {
					p.l1Count = int(in.L1Count)
					p.interval = int(in.Interval)
				}
				if in.Era > p.logEra {
					p.logEra = in.Era
				}
			}
		}
		if !p.cfg.Local {
			p.recycleEntry(p.staged)
		}
		p.staged = nil
		p.pendingID = -1
		p.pendingApplied = false
		p.reexecPending = false
		if p.cfg.Local {
			if err := p.replayExchange(); err != nil {
				return err
			}
		}
		return p.barrierH3(coord, cancel)
	}
	// If the damage exceeds what the XOR groups can repair, fall back
	// to the newest level-2 (PFS) checkpoint — multilevel C/R, the
	// paper's §VIII future work. Every rank computes the same decision
	// from the shared avail vector.
	if !p.level1Feasible(infos, restoreID) {
		if err := p.restoreL2(); err != nil {
			return err
		}
		if p.cfg.Local {
			// The fallback is a *global* rollback: every rank restarts
			// its message streams from scratch, so all logging state
			// resets and no replay runs. The log era moves to the
			// fallback epoch (job-wide agreed) so pending trim rounds
			// from the abandoned era can never collide with new ones
			// after l1Count rolls back.
			p.log.Reset()
			p.carrySeen, p.carryQueue = nil, nil
			p.gen.m.ResetSeen()
			p.logEra = p.epoch
			p.reexecPending = false
		}
		return p.barrierH3(coord, cancel)
	}

	// Adopt the interval recorded by the lowest-ranked survivor
	// holding the restore point (keeps the checkpoint schedule
	// globally consistent even when a failure interrupted an interval
	// re-tune broadcast). Local-mode survivors skip this: they keep
	// running with their current schedule, and a replacement converges
	// through the replayed re-tune broadcast it re-executes.
	if !p.cfg.Local || amFresh {
		for _, in := range infos {
			if !in.IsReplacement && int(in.AvailID) == restoreID {
				p.interval = int(in.Interval)
				break
			}
		}
	}

	// Select the local entry for restoreID (roll a fully staged entry
	// forward, or discard it). A local-mode survivor blocked inside an
	// in-flight checkpoint call keeps driving that call after recovery,
	// so the roll-forward here is only bookkeeping either way.
	if p.staged != nil {
		if p.staged.Snap.LoopID == restoreID {
			p.recycleEntry(p.committed)
			p.committed = p.staged
		} else if !p.cfg.Local {
			// A local-mode survivor may still be driving the checkpoint
			// call that staged this entry (it commits after riding the
			// fence), so only global mode recycles discarded stages.
			p.recycleEntry(p.staged)
		}
		p.staged = nil
	}
	// Replica mode after a pair loss: the two copies of a rank run
	// loosely coupled and a commit wave completes on the faster copy's
	// messages, so the copy that survives the degrade may not have
	// reached the checkpoint its peers committed. The pair is paced to
	// stay within one checkpoint (AwaitPartnerCheckpoint), so the
	// agreed rollback point is at worst the checkpoint before — which
	// every copy keeps as prior.
	if e := p.prior; e != nil && e.Snap.LoopID == restoreID &&
		(p.committed == nil || p.committed.Snap.LoopID != restoreID) {
		p.recycleEntry(p.committed)
		p.committed, p.prior = e, nil
	}

	if err := p.groupRestore(p.groups[p.rank], p.gidx[p.rank], infos, restoreID); err != nil {
		return err
	}
	if p.cfg.Local {
		if amFresh {
			p.pendingID = restoreID
			p.pendingApplied = false
			p.reexecPending = true
		} else {
			p.pendingID = -1
		}
		// Replay after the replacement seeded its restored watermarks
		// (groupRestore), so the gathered vectors are authoritative.
		if err := p.replayExchange(); err != nil {
			return err
		}
	} else {
		p.pendingID = restoreID
		p.pendingApplied = false
	}
	return p.barrierH3(coord, cancel)
}

func (p *Proc) barrierH3(coord *bootstrap.Coordinator, cancel <-chan struct{}) error {
	if err := coord.Barrier(fmt.Sprintf("h3/%d", p.epoch), p.rank, p.n, cancel); err != nil {
		return ErrFailureDetected
	}
	return nil
}

// groupRestore reconstructs the checkpoints of the replaced ranks
// within this process's checkpoint group (paper Fig 11: decode +
// gather, generalised to the configured Coder so RS(k,m) groups repair
// up to m simultaneous losses), then re-encodes so the group regains
// full redundancy.
func (p *Proc) groupRestore(group []int, gi int, infos []availInfo, restoreID int) error {
	g := len(group)
	var lost []int
	for i, r := range group {
		if infos[r].IsReplacement {
			lost = append(lost, i)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	if tol := p.coder.Tolerance(g); len(lost) > tol {
		return fmt.Errorf("%w: %d ranks lost in one group (%s tolerates %d; paper §VIII)",
			ErrUnrecoverable, len(lost), p.coder.Scheme(), tol)
	}
	// The rebuild runs on its own tag: a local-mode survivor can enter
	// this fence from inside a checkpoint's encode ring, and the ring
	// messages its peers already sent for that checkpoint are carried
	// across the fence in its queue — on tagCkptRing the decode would
	// consume them as shards of the restore point.
	gc := &groupComm{p, group, tagCkptRebuild}
	lostSet := make(map[int]bool, len(lost))
	for _, li := range lost {
		lostSet[li] = true
	}

	// The informant (lowest-indexed survivor) briefs the replacements.
	informant := 0
	for lostSet[informant] {
		informant++
	}

	if !lostSet[gi] {
		e := p.committed
		if e == nil || e.Snap.LoopID != restoreID || e.Parity == nil {
			return fmt.Errorf("%w: survivor rank %d missing checkpoint %d for group decode", ErrUnrecoverable, p.rank, restoreID)
		}
		if gi == informant {
			bf := encodeBrief(brief{
				ChunkLen:  e.ChunkLen,
				RestoreID: restoreID,
				NextCtx:   e.NextCtx,
				CommSeq:   e.CommSeq,
				L1Count:   e.L1Count,
				Sizes:     e.GroupSizes,
				Shapes:    e.GroupShapes,
				MsgStates: e.GroupMsgStates,
			})
			for _, li := range lost {
				if err := p.sendRaw(group[li], ctxWorld, tagCkptMeta, transport.KindCkpt, bf); err != nil {
					return err
				}
			}
		}
		if _, err := p.coder.Reconstruct(gc, gi, g, lost, e.Snap.Data, e.Parity, e.ChunkLen); err != nil {
			return ErrFailureDetected
		}
		// Restore redundancy for the rebuilt members.
		parity, err := p.coder.Encode(gc, gi, g, e.Snap.Data, e.ChunkLen)
		if err != nil {
			return ErrFailureDetected
		}
		if e.pooledParity {
			p.pool.Put(e.Parity)
		}
		e.Parity = parity
		e.pooledParity = p.pool != nil
		return nil
	}

	// This process is a replacement: receive the brief, gather the
	// survivors' shards into the lost checkpoint, re-encode for parity.
	msg, err := p.recvRaw(ctxWorld, int32(group[informant]), tagCkptMeta)
	if err != nil {
		return ErrFailureDetected
	}
	b, err := decodeBrief(msg.Data)
	msg.Release() // decode copied every field
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	start := time.Now()
	data, err := p.coder.Reconstruct(gc, gi, g, lost, nil, nil, b.ChunkLen)
	if err != nil {
		return ErrFailureDetected
	}
	mySize := b.Sizes[gi]
	snap := ckpt.FromData(b.RestoreID, data[:mySize], b.Shapes[gi])
	p.cfg.Trace.Add(trace.KindShardRebuild, p.rank, p.epoch,
		"%s rebuild: %d B from in-memory shards in %v (%d lost in group of %d)",
		p.coder.Scheme(), mySize, time.Since(start), len(lost), g)
	parity, err := p.coder.Encode(gc, gi, g, snap.Data, b.ChunkLen)
	if err != nil {
		return ErrFailureDetected
	}
	p.recycleEntry(p.committed)
	p.committed = &entryExt{
		Entry: &ckpt.Entry{
			Snap:       snap,
			Parity:     parity,
			Scheme:     p.coder.Scheme(),
			Shards:     len(parity) / b.ChunkLen,
			ChunkLen:   b.ChunkLen,
			GroupSizes: b.Sizes,
			GroupLoop:  b.RestoreID,
		},
		Interval:       p.interval,
		GroupShapes:    b.Shapes,
		NextCtx:        b.NextCtx,
		CommSeq:        b.CommSeq,
		L1Count:        b.L1Count,
		ViewVersion:    p.viewVersion(),
		GroupMsgStates: b.MsgStates,
		// The rebuilt snapshot aliases the reconstruction buffer (never
		// pooled); the re-encoded parity is pool-recyclable.
		pooledParity: p.pool != nil,
	}
	if p.cfg.Local && gi < len(b.MsgStates) && len(b.MsgStates[gi]) > 0 {
		if err := p.restoreMsgState(b.MsgStates[gi]); err != nil {
			return fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
	}
	return nil
}

// restoreMsgState adopts the checkpointed messaging state on a
// respawned rank: send counters resume so re-executed sends reproduce
// their original sequence numbers, receive watermarks suppress already
// -consumed duplicates, and the captured unexpected queue is restored.
// The pending trim round is contributed later, when the re-executed
// checkpoint exchange (Loop's restore path) commits.
func (p *Proc) restoreMsgState(blob []byte) error {
	st, err := decodeMsgState(blob)
	if err != nil {
		return err
	}
	if err := p.log.RestoreSendSeqs(st.SendSeqs); err != nil {
		return err
	}
	p.logEra = st.Era
	p.gen.m.SeedSeen(st.Seen)
	if len(st.Queue) > 0 {
		p.gen.m.Inject(st.Queue)
	}
	return nil
}
