// Package cluster simulates an HPC cluster: a set of compute nodes, the
// processes running on them, a resource manager holding a pool of spare
// nodes, and a failure injector that kills nodes or individual processes.
//
// It is the substrate that stands in for the physical machines, SLURM
// resource manager, and hardware failures of the paper's testbed (LLNL
// Sierra). The rest of the system observes exactly the events a real
// runtime would observe: a node fails, every process on it dies, and a
// replacement node must be obtained before the lost ranks can be
// respawned.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cluster is a collection of simulated nodes. All methods are safe for
// concurrent use.
type Cluster struct {
	mu      sync.Mutex
	nodes   []*Node
	nextPID int64

	failSubs []func(*Node) // invoked (synchronously) on node failure
	killSubs []func(*Proc) // invoked (synchronously) on process death

	// event is held for writing while a fault event fails its nodes;
	// Node.Settle takes it for reading, so an observer that settles
	// before acting never sees part of a correlated event.
	event sync.RWMutex
}

// New creates a cluster with n healthy nodes named node0..node{n-1}.
func New(n int) *Cluster {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.addNodeLocked()
	}
	return c
}

func (c *Cluster) addNodeLocked() *Node {
	id := len(c.nodes)
	nd := &Node{
		ID:      id,
		Name:    fmt.Sprintf("node%d", id),
		cluster: c,
		killCh:  make(chan struct{}),
		procs:   make(map[int64]*Proc),
	}
	c.nodes = append(c.nodes, nd)
	return nd
}

// AddNode provisions a brand-new node (e.g. delivered by the resource
// manager after the spare pool ran dry) and returns it.
func (c *Cluster) AddNode() *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addNodeLocked()
}

// Node returns the node with the given id, or nil.
func (c *Cluster) Node(id int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Nodes returns a snapshot of all nodes (healthy and failed).
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Alive returns the currently healthy nodes.
func (c *Cluster) Alive() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*Node
	for _, nd := range c.nodes {
		if !nd.Failed() {
			out = append(out, nd)
		}
	}
	return out
}

// OnNodeFailure registers a callback invoked whenever a node fails.
// Callbacks run synchronously on the failing goroutine and must not
// block; transports use this to schedule disconnect events.
func (c *Cluster) OnNodeFailure(f func(*Node)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failSubs = append(c.failSubs, f)
}

// OnProcDeath registers a callback invoked whenever a process dies
// (individually or as part of a node failure).
func (c *Cluster) OnProcDeath(f func(*Proc)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.killSubs = append(c.killSubs, f)
}

func (c *Cluster) notifyNodeFailure(nd *Node) {
	c.mu.Lock()
	subs := append([]func(*Node){}, c.failSubs...)
	c.mu.Unlock()
	for _, f := range subs {
		f(nd)
	}
}

func (c *Cluster) notifyProcDeath(p *Proc) {
	c.mu.Lock()
	subs := append([]func(*Proc){}, c.killSubs...)
	c.mu.Unlock()
	for _, f := range subs {
		f(p)
	}
}

// Node is a simulated compute node. A node fails atomically: every
// process on it is killed and the node never hosts processes again
// (the resource manager replaces it with a spare).
type Node struct {
	ID      int
	Name    string
	cluster *Cluster

	mu     sync.Mutex
	failed bool
	killCh chan struct{}
	procs  map[int64]*Proc
}

// Failed reports whether the node has failed.
func (n *Node) Failed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed
}

// FailedCh is closed when the node fails.
func (n *Node) FailedCh() <-chan struct{} { return n.killCh }

// Spawn creates a new process on the node. It fails if the node has
// already failed.
func (n *Node) Spawn() (*Proc, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failed {
		return nil, fmt.Errorf("cluster: node %s has failed", n.Name)
	}
	pid := atomic.AddInt64(&n.cluster.nextPID, 1)
	p := &Proc{
		PID:    pid,
		node:   n,
		killCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	n.procs[pid] = p
	return p, nil
}

// Procs returns a snapshot of the processes currently on the node.
func (n *Node) Procs() []*Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Proc, 0, len(n.procs))
	for _, p := range n.procs {
		out = append(out, p)
	}
	return out
}

// Fail kills the node: all resident processes die and the node is
// marked failed. Idempotent.
func (n *Node) Fail() { n.cluster.FailNodes([]*Node{n}) }

// FailNodes fails the nodes in one event: every resident process of
// every node is dead before an observer that calls Settle can act, and
// the failure callbacks run once the whole event is done. Nodes that
// already failed are skipped.
func (c *Cluster) FailNodes(nds []*Node) {
	var failed []*Node
	var died []*Proc
	c.event.Lock()
	for _, n := range nds {
		n.mu.Lock()
		if n.failed {
			n.mu.Unlock()
			continue
		}
		n.failed = true
		close(n.killCh)
		procs := make([]*Proc, 0, len(n.procs))
		for _, p := range n.procs {
			procs = append(procs, p)
		}
		n.mu.Unlock()
		for _, p := range procs {
			if p.kill() {
				died = append(died, p)
			}
		}
		failed = append(failed, n)
	}
	c.event.Unlock()
	for _, p := range died {
		c.notifyProcDeath(p)
	}
	for _, n := range failed {
		c.notifyNodeFailure(n)
	}
}

// Settle returns once no fault event is failing nodes. A failure
// observer calls it before acting, so a correlated fault reaches it
// whole: every node of the event has failed.
func (n *Node) Settle() {
	n.cluster.event.RLock()
	n.cluster.event.RUnlock()
}

func (n *Node) removeProc(p *Proc) {
	n.mu.Lock()
	delete(n.procs, p.PID)
	n.mu.Unlock()
}

// Proc is a simulated process: a goroutine slot with an asynchronous
// kill switch. The goroutine that executes the process body must treat
// a closed KillCh as sudden death (the fmi runtime does this by
// panicking out of every blocking call).
type Proc struct {
	PID  int64
	node *Node

	killOnce sync.Once
	killCh   chan struct{}

	doneOnce sync.Once
	doneCh   chan struct{}
	exitErr  error
	exited   atomic.Bool
}

// Node returns the node hosting the process.
func (p *Proc) Node() *Node { return p.node }

// KillCh is closed when the process is killed. Every blocking
// operation performed on behalf of the process must select on it.
func (p *Proc) KillCh() <-chan struct{} { return p.killCh }

// Killed reports whether the process has been killed.
func (p *Proc) Killed() bool {
	select {
	case <-p.killCh:
		return true
	default:
		return false
	}
}

// Kill terminates the process abruptly (SIGKILL analogue). Idempotent.
func (p *Proc) Kill() {
	if p.kill() {
		p.node.cluster.notifyProcDeath(p)
	}
}

// kill closes KillCh and reports whether this call did it.
func (p *Proc) kill() (first bool) {
	p.killOnce.Do(func() {
		close(p.killCh)
		p.node.removeProc(p)
		first = true
	})
	return first
}

// Exit records a voluntary exit with the given error (nil for
// success). Idempotent; the first call wins.
func (p *Proc) Exit(err error) {
	p.doneOnce.Do(func() {
		p.exitErr = err
		p.exited.Store(true)
		p.node.removeProc(p)
		close(p.doneCh)
	})
}

// DoneCh is closed when the process exits voluntarily.
func (p *Proc) DoneCh() <-chan struct{} { return p.doneCh }

// ExitErr returns the recorded exit error; only meaningful after
// DoneCh is closed.
func (p *Proc) ExitErr() error { return p.exitErr }
