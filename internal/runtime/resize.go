package runtime

// Online grow/shrink reconfiguration: the two-phase quiescent fence
// that commits a new membership view without restarting the job.
//
// Phase 1 (ack): RequestResize arms a resizeState and (for a grow)
// provisions the new nodes in the background. Every live rank — and,
// in replica mode, every live synced shadow — keeps running, but
// reports its current loop iteration through JoinResize at each Loop
// top. Once provisioning is done and every participant has acked, the
// fence cut is decided: cutLoop = max(acked loop ids) + 1, the first
// iteration nobody has started yet.
//
// Phase 2 (park): a rank reaching cutLoop parks inside JoinResize.
// When every live rank (and synced shadow) is parked the job is
// quiescent — no data-plane message is in flight between iterations —
// and commitResize installs the successor view: epoch bump (to
// supersede stale rendezvous keys), new rank/node tables, retired
// ranks killed (shrink) or joiners spawned (grow), and the parked
// survivors released with the new view to re-derive their schedules
// and take an immediate view-stamped checkpoint over the new groups.
//
// A node failure before the commit point aborts the fence (parked
// ranks are released to recover under the old view; acks re-collect
// once recovery settles). A failure after the commit point is an
// ordinary failure in the new view.

import (
	"errors"
	"fmt"

	"fmi/internal/cluster"
	"fmi/internal/core"
	"fmi/internal/trace"
	"fmi/internal/view"
)

// errFenceAborted releases parked fence waiters when the fence is torn
// down before committing; JoinResize converts it to a plain Proceed.
var errFenceAborted = errors.New("fmirun: resize fence aborted")

// fenceResult is what a parked rank receives when the fence resolves.
type fenceResult struct {
	view    *view.View
	retired bool
	err     error
}

// fenceWaiter parks one rank (or shadow observer) at the fence cut.
type fenceWaiter struct {
	ch chan fenceResult // buffered(1): delivery never blocks under j.mu
}

// resizeState is one armed view-change fence (guarded by Job.mu).
type resizeState struct {
	ticket         uint64
	target         int
	provisioned    bool            // grow nodes allocated (always true for shrink)
	newNodes       []*cluster.Node // grow: nodes backing the new machinefile slots
	newShadowNodes []*cluster.Node // grow+replica: one shadow node per new rank
	acks           map[int]int     // live participant rank -> last acked loop id
	obsAcks        map[int]int     // live synced-shadow rank -> last acked loop id
	cutLoop        int             // fence iteration; -1 until decided
	arrived        map[int]*fenceWaiter
	obsArrived     map[int]*fenceWaiter
	committing     bool
	resCh          chan error // buffered(1): receives the terminal outcome once
}

// CurrentView implements core.ViewControl.
func (j *Job) CurrentView() *view.View {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

// ResizePending implements core.ViewControl: the armed fence's ticket,
// or 0 when no resize is in flight.
func (j *Job) ResizePending() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.resize == nil {
		return 0
	}
	return j.resize.ticket
}

// JoinResize implements core.ViewControl. Ranks call it at the top of
// every Loop iteration while a fence is armed; synced shadows call it
// with observer=true. Before the cut is decided (or below the cut) it
// records an ack and returns Proceed; at or above the cut it parks the
// caller until the fence commits or aborts.
func (j *Job) JoinResize(ticket uint64, rank, loopID int, observer bool, cancel <-chan struct{}) (core.ResizeOutcome, error) {
	j.mu.Lock()
	rs := j.resize
	if rs == nil || rs.ticket != ticket || rs.committing {
		j.mu.Unlock()
		return core.ResizeOutcome{Proceed: true}, nil
	}
	if rs.cutLoop < 0 || loopID < rs.cutLoop {
		// Phase 1: ack and keep running. The cut is max(acks)+1, so the
		// ack that completes the set still satisfies loopID < cutLoop.
		if observer {
			rs.obsAcks[rank] = loopID
		} else {
			rs.acks[rank] = loopID
		}
		j.maybeDecideCutLocked(rs)
		j.mu.Unlock()
		return core.ResizeOutcome{Proceed: true}, nil
	}
	// Phase 2: park at the fence.
	w := &fenceWaiter{ch: make(chan fenceResult, 1)}
	if observer {
		rs.obsArrived[rank] = w
	} else {
		rs.arrived[rank] = w
	}
	j.maybeCommitLocked(rs)
	j.mu.Unlock()
	select {
	case res := <-w.ch:
		if res.err != nil {
			if errors.Is(res.err, errFenceAborted) {
				return core.ResizeOutcome{Proceed: true}, nil
			}
			return core.ResizeOutcome{}, res.err
		}
		if res.retired {
			return core.ResizeOutcome{Retired: true}, nil
		}
		return core.ResizeOutcome{View: res.view}, nil
	case <-cancel:
		// The parked process was killed (its node died; the failure
		// report aborts the fence separately). Withdraw the arrival so a
		// later commit cannot deliver into the void.
		j.mu.Lock()
		if j.resize == rs {
			if observer {
				if rs.obsArrived[rank] == w {
					delete(rs.obsArrived, rank)
				}
			} else if rs.arrived[rank] == w {
				delete(rs.arrived, rank)
			}
		}
		j.mu.Unlock()
		return core.ResizeOutcome{}, core.ErrKilled
	case <-j.abortCh:
		return core.ResizeOutcome{}, ErrJobAborted
	}
}

// RequestResize implements core.ViewControl: arm a resize and return
// immediately; the outcome is traced. Applications call it through
// Env.Resize, the job service through its HTTP surface.
func (j *Job) RequestResize(n int) error {
	ch, err := j.startResize(n)
	if err != nil || ch == nil {
		return err
	}
	go func() {
		select {
		case err := <-ch:
			if err != nil {
				j.cfg.Trace.Add(trace.KindViewChange, -1, 0, "resize to %d ranks failed: %v", n, err)
			}
		case <-j.abortCh:
		case <-j.finCh:
		}
	}()
	return nil
}

// Resize arms a resize to n ranks and blocks until the new view
// commits (nil), the resize fails, or the job ends.
func (j *Job) Resize(n int) error {
	ch, err := j.startResize(n)
	if err != nil || ch == nil {
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-j.abortCh:
		return ErrJobAborted
	case <-j.doneCh:
		return fmt.Errorf("fmirun: job completed before resize to %d ranks", n)
	}
}

// startResize validates and arms a fence. Returns (nil, nil) when the
// target equals the current world size (no-op).
func (j *Job) startResize(target int) (chan error, error) {
	if !j.cfg.Elastic {
		return nil, fmt.Errorf("fmirun: job is not elastic (set Config.Elastic to enable online resize)")
	}
	if target <= 0 {
		return nil, fmt.Errorf("fmirun: resize target must be positive (got %d)", target)
	}
	j.mu.Lock()
	select {
	case <-j.abortCh:
		j.mu.Unlock()
		return nil, ErrJobAborted
	case <-j.doneCh:
		j.mu.Unlock()
		return nil, fmt.Errorf("fmirun: job already completed")
	default:
	}
	if j.finalizing {
		j.mu.Unlock()
		return nil, fmt.Errorf("fmirun: job is finalizing; resize rejected")
	}
	if j.resize != nil {
		j.mu.Unlock()
		return nil, fmt.Errorf("fmirun: a resize is already in progress")
	}
	oldN := len(j.rankDone)
	if target == oldN {
		j.mu.Unlock()
		return nil, nil
	}
	j.ticketSeq++
	rs := &resizeState{
		ticket:     j.ticketSeq,
		target:     target,
		cutLoop:    -1,
		acks:       make(map[int]int),
		obsAcks:    make(map[int]int),
		arrived:    make(map[int]*fenceWaiter),
		obsArrived: make(map[int]*fenceWaiter),
		resCh:      make(chan error, 1),
	}
	if target < oldN {
		rs.provisioned = true // shrink needs no new nodes
	}
	j.resize = rs
	j.mu.Unlock()
	j.cfg.Trace.Add(trace.KindViewChange, -1, j.Epoch(), "resize armed: %d -> %d ranks (ticket %d)", oldN, target, rs.ticket)
	if target > oldN {
		go j.provisionForResize(rs, oldN, target)
	}
	return rs.resCh, nil
}

// provisionForResize allocates the nodes a grow needs before the fence
// cut can be decided: one node per new machinefile slot, plus (replica
// mode) one anti-affine shadow node per new rank.
func (j *Job) provisionForResize(rs *resizeState, oldN, target int) {
	ppn := j.cfg.ProcsPerNode
	newSlots := (target-1)/ppn - (oldN-1)/ppn
	var nodes, shadows []*cluster.Node
	release := func() {
		for _, nd := range nodes {
			j.rm.AddSpare(nd)
		}
		for _, nd := range shadows {
			j.rm.AddSpare(nd)
		}
	}
	fail := func(err error) {
		j.mu.Lock()
		if j.resize == rs {
			j.resize = nil
			rs.resCh <- fmt.Errorf("fmirun: resize provisioning: %w", err)
		}
		j.mu.Unlock()
		release()
	}
	for i := 0; i < newSlots; i++ {
		nd, err := j.rm.Allocate(j.abortCh)
		if err != nil {
			fail(err)
			return
		}
		nodes = append(nodes, nd)
	}
	if j.rep != nil && j.rep.reg.Active() {
		// ProcsPerNode == 1 in replica mode: one new slot per new rank.
		for i := 0; i < len(nodes); i++ {
			nd, err := j.rm.AllocateAvoiding(j.abortCh, nodes[i].ID)
			if err != nil {
				fail(err)
				return
			}
			shadows = append(shadows, nd)
		}
	}
	j.mu.Lock()
	if j.resize != rs {
		j.mu.Unlock()
		release() // fence was torn down while we were allocating
		return
	}
	j.spareUsed += len(nodes) + len(shadows)
	rs.newNodes, rs.newShadowNodes = nodes, shadows
	rs.provisioned = true
	j.maybeDecideCutLocked(rs)
	j.maybeCommitLocked(rs)
	j.mu.Unlock()
	j.cfg.Trace.Add(trace.KindViewChange, -1, j.Epoch(), "resize to %d: %d nodes provisioned", target, len(nodes)+len(shadows))
}

// maybeDecideCutLocked decides the fence cut once provisioning is done
// and every live participant (and live synced shadow) has acked.
// Caller holds j.mu.
func (j *Job) maybeDecideCutLocked(rs *resizeState) {
	if rs.cutLoop >= 0 || !rs.provisioned || rs.committing || j.resize != rs {
		return
	}
	maxLoop := -1
	for r := 0; r < len(j.rankDone); r++ {
		if j.rankDone[r] {
			continue
		}
		l, ok := rs.acks[r]
		if !ok {
			return
		}
		if l > maxLoop {
			maxLoop = l
		}
	}
	if j.rep != nil && j.rep.reg.Active() {
		for r := 0; r < len(j.rankDone); r++ {
			if j.rankDone[r] {
				continue
			}
			if has, synced, _ := j.rep.reg.ShadowState(r); has && synced {
				l, ok := rs.obsAcks[r]
				if !ok {
					return
				}
				if l > maxLoop {
					maxLoop = l
				}
			}
		}
	}
	rs.cutLoop = maxLoop + 1
	j.cfg.Trace.Add(trace.KindViewChange, -1, j.epoch, "resize to %d: fence cut at loop %d", rs.target, rs.cutLoop)
}

// maybeCommitLocked fires the commit once the cut is decided and every
// live rank — and every synced shadow — is parked at it. A shadow with
// a sync snapshot in flight (registered, not yet synced, request
// already taken) blocks the commit: it is about to go lockstep and
// must cross the fence with its primary. Caller holds j.mu.
func (j *Job) maybeCommitLocked(rs *resizeState) {
	if rs.cutLoop < 0 || rs.committing || j.resize != rs {
		return
	}
	for r := 0; r < len(j.rankDone); r++ {
		if j.rankDone[r] {
			continue
		}
		if rs.arrived[r] == nil {
			return
		}
	}
	if j.rep != nil && j.rep.reg.Active() {
		for r := 0; r < len(j.rankDone); r++ {
			if j.rankDone[r] {
				continue
			}
			has, synced, req := j.rep.reg.ShadowState(r)
			switch {
			case has && synced:
				if rs.obsArrived[r] == nil {
					return
				}
			case has && !synced && !req:
				return // sync snapshot in flight; wait for MarkSynced
			}
		}
	}
	rs.committing = true
	go j.commitResize(rs)
}

// abortFenceLocked tears an uncommitted fence back to phase 1: parked
// ranks are released to proceed (and recover) under the old view, all
// acks are discarded, and the cut is undecided again. The fence stays
// armed — and keeps its provisioned nodes — so the resize retries once
// the recovery settles and acks re-collect. Caller holds j.mu.
func (j *Job) abortFenceLocked(rs *resizeState, reason string) {
	res := fenceResult{err: errFenceAborted}
	for r, w := range rs.arrived {
		w.ch <- res
		delete(rs.arrived, r)
	}
	for r, w := range rs.obsArrived {
		w.ch <- res
		delete(rs.obsArrived, r)
	}
	rs.acks = make(map[int]int)
	rs.obsAcks = make(map[int]int)
	rs.cutLoop = -1
	j.cfg.Trace.Add(trace.KindViewChange, -1, j.epoch, "resize fence aborted (%s); re-collecting acks", reason)
}

// failResizeLocked ends the resize attempt with an error: parked ranks
// proceed under the old view and the requester gets err. Caller holds
// j.mu; provisioned nodes must be released by the caller outside it.
func (j *Job) failResizeLocked(rs *resizeState, err error) {
	j.abortFenceLocked(rs, err.Error())
	rs.resCh <- err
	j.resize = nil
}

// MarkFinalizing implements core.ViewControl: once any rank enters
// Finalize the membership is frozen — an uncommitted fence is disarmed
// (its waiters proceed straight into their own Finalize) and further
// resizes are rejected.
func (j *Job) MarkFinalizing(rank int) {
	j.mu.Lock()
	j.finalizing = true
	rs := j.resize
	var freed []*cluster.Node
	if rs != nil && !rs.committing {
		freed = append(freed, rs.newNodes...)
		freed = append(freed, rs.newShadowNodes...)
		rs.newNodes, rs.newShadowNodes = nil, nil
		j.failResizeLocked(rs, fmt.Errorf("fmirun: job finalizing; resize to %d ranks cancelled", rs.target))
	}
	j.mu.Unlock()
	for _, nd := range freed {
		j.rm.AddSpare(nd)
	}
}

// commitResize installs the successor view at a quiescent fence. It
// runs in its own goroutine with rs.committing already set, so no new
// acks, arrivals, or fence aborts can race it.
func (j *Job) commitResize(rs *resizeState) {
	j.mu.Lock()
	if j.resize != rs {
		j.mu.Unlock()
		return
	}
	select {
	case <-j.abortCh:
		rs.resCh <- ErrJobAborted
		j.resize = nil
		j.mu.Unlock()
		return
	default:
	}
	// A provisioned node that died while the fence was settling cannot
	// host a joiner; end the attempt (survivors proceed under the old
	// view) rather than committing onto a dead node.
	var healthy []*cluster.Node
	for _, nd := range append(append([]*cluster.Node{}, rs.newNodes...), rs.newShadowNodes...) {
		if nd.Failed() {
			rs.committing = false
			for _, h := range rs.newNodes {
				if !h.Failed() {
					healthy = append(healthy, h)
				}
			}
			for _, h := range rs.newShadowNodes {
				if !h.Failed() {
					healthy = append(healthy, h)
				}
			}
			j.failResizeLocked(rs, fmt.Errorf("fmirun: provisioned node %d failed before the fence committed", nd.ID))
			j.mu.Unlock()
			for _, h := range healthy {
				j.rm.AddSpare(h)
			}
			return
		}
	}

	oldN := len(j.rankDone)
	target := rs.target
	ppn := j.cfg.ProcsPerNode
	oldEpoch := j.epoch
	newEpoch := j.advanceEpochLocked()

	// New rank -> node map: survivors keep their nodes; grow ranks land
	// on the provisioned slots (partial-slot joiners ride the node that
	// already hosts their slot's ranks).
	nodeOf := make([]int, target)
	for r := 0; r < target && r < oldN; r++ {
		nodeOf[r] = j.rankNode[r]
	}
	lastOldSlot := (oldN - 1) / ppn
	for r := oldN; r < target; r++ {
		slot := r / ppn
		if slot <= lastOldSlot {
			nodeOf[r] = j.rankNode[slot*ppn]
		} else {
			nodeOf[r] = rs.newNodes[slot-lastOldSlot-1].ID
		}
	}
	newView := j.view.Next(target, ppn, j.cfg.GroupSize, nodeOf)
	j.view = newView

	type spawnPlan struct {
		t       *task
		rank    int
		shadowT *task
	}
	var plans []spawnPlan
	var retiredProcs []*cluster.Proc
	var freedNodes []*cluster.Node
	var freedIDs []int

	if target < oldN {
		used := make(map[int]bool, target)
		for r := 0; r < target; r++ {
			used[j.rankNode[r]] = true
		}
		for r := target; r < oldN; r++ {
			if !j.rankDone[r] {
				if cp := j.rankProc[r]; cp != nil {
					retiredProcs = append(retiredProcs, cp)
				}
				if t := j.tasks[j.rankNode[r]]; t != nil {
					t.setRetiring(r)
				}
			}
		}
		seen := map[int]bool{}
		for r := target; r < oldN; r++ {
			nd := j.rankNode[r]
			if used[nd] || seen[nd] {
				continue
			}
			seen[nd] = true
			delete(j.tasks, nd)
			if n := j.clu.Node(nd); n != nil && !n.Failed() {
				freedNodes = append(freedNodes, n)
				freedIDs = append(freedIDs, nd)
			}
		}
		j.rankNode = append([]int(nil), j.rankNode[:target]...)
		j.rankProc = append([]*cluster.Proc(nil), j.rankProc[:target]...)
		j.rankDone = append([]bool(nil), j.rankDone[:target]...)
	} else {
		rankNode := make([]int, target)
		rankProc := make([]*cluster.Proc, target)
		rankDone := make([]bool, target)
		copy(rankNode, j.rankNode)
		copy(rankProc, j.rankProc)
		copy(rankDone, j.rankDone)
		copy(rankNode[oldN:], nodeOf[oldN:])
		j.rankNode, j.rankProc, j.rankDone = rankNode, rankProc, rankDone
		for _, nd := range rs.newNodes {
			if j.tasks[nd.ID] == nil {
				j.tasks[nd.ID] = newTask(j, nd)
			}
		}
		for r := oldN; r < target; r++ {
			plans = append(plans, spawnPlan{t: j.tasks[nodeOf[r]], rank: r})
		}
	}
	j.doneCount = 0
	for _, d := range j.rankDone {
		if d {
			j.doneCount++
		}
	}

	// Replica bookkeeping: re-key the registry for the new world, retire
	// the shadows of retired ranks, and plan shadows for the joiners.
	var retiredShadowProcs []*cluster.Proc
	if j.rep != nil {
		if j.rep.reg.Active() {
			j.rep.reg.BeginEpoch(target)
		}
		shadowNode := make([]int, target)
		shadowProc := make([]*cluster.Proc, target)
		for r := range shadowNode {
			shadowNode[r] = -1
		}
		copy(shadowNode, j.rep.shadowNode)
		copy(shadowProc, j.rep.shadowProc)
		for r := target; r < oldN && r < len(j.rep.shadowNode); r++ {
			nd := j.rep.shadowNode[r]
			if nd < 0 {
				continue
			}
			if cp := j.rep.shadowProc[r]; cp != nil {
				retiredShadowProcs = append(retiredShadowProcs, cp)
			}
			if st := j.tasks[nd]; st != nil {
				st.silence()
				delete(j.tasks, nd)
			}
			if n := j.clu.Node(nd); n != nil && !n.Failed() {
				freedNodes = append(freedNodes, n)
				freedIDs = append(freedIDs, nd)
			}
		}
		j.rep.shadowNode, j.rep.shadowProc = shadowNode[:target], shadowProc[:target]
		if j.rep.reg.Active() {
			for i, nd := range rs.newShadowNodes {
				r := oldN + i
				if r >= target || r-oldN >= len(plans) {
					break
				}
				nt := newShadowTask(j, nd)
				j.tasks[nd.ID] = nt
				j.rep.shadowNode[r] = nd.ID
				plans[r-oldN].shadowT = nt
			}
		}
	}

	// Release the parked survivors into the new view and tell retired
	// ranks to unwind.
	for r, w := range rs.arrived {
		if r < target {
			w.ch <- fenceResult{view: newView}
		} else {
			w.ch <- fenceResult{retired: true}
		}
	}
	for r, w := range rs.obsArrived {
		if r < target {
			w.ch <- fenceResult{view: newView}
		} else {
			w.ch <- fenceResult{retired: true}
		}
	}
	cutLoop := rs.cutLoop
	j.resize = nil
	jobDone := j.doneCount >= target
	j.cfg.Trace.AddView(trace.KindViewChange, -1, newEpoch, newView.Version,
		"%s committed at loop %d (%d -> %d ranks, epoch %d)", newView, cutLoop, oldN, target, newEpoch)
	j.mu.Unlock()

	// Supersede every rendezvous keyed by the old epoch: survivors
	// re-negotiate at newEpoch with the new world size.
	for _, prefix := range []string{"h1", "avail", "h3", "replay", "finalize"} {
		j.coord.AbortGather(fmt.Sprintf("%s/%d", prefix, oldEpoch), core.ErrFailureDetected)
	}
	for _, cp := range retiredProcs {
		cp.Kill()
	}
	for _, cp := range retiredShadowProcs {
		cp.Kill()
	}
	for _, nd := range freedNodes {
		if j.cfg.OnNodeRetired != nil && j.cfg.OnNodeRetired(nd) {
			continue // the external scheduler took the node back
		}
		j.rm.AddSpare(nd)
	}
	for _, pl := range plans {
		j.cfg.Trace.Add(trace.KindRespawn, pl.rank, newEpoch, "joiner spawned on node %d at loop %d", pl.t.node.ID, cutLoop)
		if err := j.spawnRank(pl.t, pl.rank, newEpoch, false, cutLoop); err != nil {
			j.Abort(fmt.Errorf("%w: spawn joiner rank %d: %v", ErrJobAborted, pl.rank, err))
			return
		}
		if pl.shadowT != nil {
			if err := j.spawnShadow(pl.shadowT, pl.rank, false, newEpoch, cutLoop); err != nil {
				j.Abort(fmt.Errorf("%w: spawn joiner shadow %d: %v", ErrJobAborted, pl.rank, err))
				return
			}
		}
	}
	if j.cfg.OnViewChange != nil {
		j.cfg.OnViewChange(newView, freedIDs)
	}
	if jobDone {
		// A shrink can retire every rank that had not finished yet.
		select {
		case <-j.doneCh:
		default:
			close(j.doneCh)
		}
		j.killShadows()
	}
	rs.resCh <- nil
}
