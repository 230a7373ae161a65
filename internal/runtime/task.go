package runtime

import (
	"sync"

	"fmi/internal/cluster"
	"fmi/internal/trace"
)

// task is the per-node fmirun.task of Fig 6: it forks the rank
// processes on its node, watches them, and — if any child dies or
// exits unsuccessfully — kills the remaining children and reports the
// failure up to fmirun (paper §IV-B). In replica mode a task may host
// a rank's shadow copy instead of its primary; promotion flips the
// role in place.
type task struct {
	j    *Job
	node *cluster.Node

	mu       sync.Mutex
	children map[int]*cluster.Proc // rank -> proc
	failed   bool
	shadow   bool         // hosts a shadow copy (replica recovery)
	retiring map[int]bool // ranks retired by a shrink fence; their kills are deliberate
}

func newTask(j *Job, node *cluster.Node) *task {
	t := &task{j: j, node: node, children: make(map[int]*cluster.Proc)}
	// A node failure kills the task itself; report it even if no
	// child-death race delivers the event first. The watch ends with
	// the job.
	go func() {
		select {
		case <-node.FailedCh():
			t.fail()
		case <-j.finCh:
		}
	}()
	return t
}

// newShadowTask creates a task hosting a shadow copy.
func newShadowTask(j *Job, node *cluster.Node) *task {
	t := newTask(j, node)
	t.mu.Lock()
	t.shadow = true
	t.mu.Unlock()
	return t
}

// isShadow reports the task's current role.
func (t *task) isShadow() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shadow
}

// setPrimary flips a shadow task to primary (its child was promoted).
func (t *task) setPrimary() {
	t.mu.Lock()
	t.shadow = false
	t.mu.Unlock()
}

// setRetiring marks one child rank as retired by a shrink fence: its
// upcoming kill is a deliberate teardown, not a node failure.
func (t *task) setRetiring(rank int) {
	t.mu.Lock()
	if t.retiring == nil {
		t.retiring = make(map[int]bool)
	}
	t.retiring[rank] = true
	t.mu.Unlock()
}

func (t *task) isRetiring(rank int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retiring[rank]
}

// silence marks the task failed without reporting, so a deliberate
// teardown of its children (shadow reaping at job completion, abort,
// or a replica degrade) does not masquerade as a node failure.
func (t *task) silence() {
	t.mu.Lock()
	t.failed = true
	t.mu.Unlock()
}

func (t *task) addChild(rank int, cp *cluster.Proc) {
	t.mu.Lock()
	t.children[rank] = cp
	t.mu.Unlock()
	go t.watch(rank, cp)
}

func (t *task) watch(rank int, cp *cluster.Proc) {
	select {
	case <-cp.KillCh():
		if t.isRetiring(rank) {
			// Deliberate teardown of a rank retired by a shrink fence:
			// the node and its surviving children are healthy.
			t.mu.Lock()
			delete(t.children, rank)
			t.mu.Unlock()
			return
		}
		t.j.cfg.Trace.Add(trace.KindProcKilled, rank, t.j.Epoch(), "process killed on node %d", t.node.ID)
		t.fail()
	case <-cp.DoneCh():
		shadow := t.isShadow()
		if shadow {
			t.mu.Lock()
			delete(t.children, rank)
			t.mu.Unlock()
		}
		// A killed copy's exit is the kill's, reported above or by the
		// node failure.
		err := cp.ExitErr()
		if err != nil && !cp.Killed() && t.j.replicaCopyFailed(rank, shadow, err) {
			return
		}
		if shadow {
			// A shadow's clean exit is not the rank's: completion is
			// reported by the acting primary.
			return
		}
		if err != nil {
			// Unsuccessful exit: treat like a crash (EXIT_FAILURE path
			// in the paper) *unless* the job is already completing.
			t.j.rankFinished(rank, err)
			t.fail()
			return
		}
		t.childDone(rank)
	}
}

func (t *task) childDone(rank int) {
	t.mu.Lock()
	delete(t.children, rank)
	t.mu.Unlock()
	t.j.rankFinished(rank, nil)
}

// fail kills the remaining children and reports the task failure once.
func (t *task) fail() {
	// Act on the whole fault event: a correlated fault may still be
	// failing the other nodes it takes down.
	t.node.Settle()
	t.mu.Lock()
	if t.failed {
		t.mu.Unlock()
		return
	}
	t.failed = true
	kids := make([]*cluster.Proc, 0, len(t.children))
	for _, cp := range t.children {
		kids = append(kids, cp)
	}
	t.mu.Unlock()
	for _, cp := range kids {
		cp.Kill()
	}
	t.j.taskFailed(t)
}
