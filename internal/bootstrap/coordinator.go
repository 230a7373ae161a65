// Package bootstrap implements job bootstrapping: the exchange of
// endpoint addresses among the processes of a job so that every rank
// can reach every other.
//
// Two exchange algorithms are provided, mirroring the paper's Fig 14
// comparison:
//
//   - Tree (PMGR_COLLECTIVE-style, used by FMI): each process registers
//     its endpoint with the coordinator once, learns its binomial-tree
//     parent and children, then the full endpoint table is gathered up
//     and broadcast down the tree over the processes' own transport.
//     Coordinator load is O(1) small messages per process; the table
//     traverses O(log n) rounds.
//
//   - KVS (PMI-style, used by the MVAPICH2/SLURM baseline): each
//     process Puts its endpoint into a central key-value space, Fences,
//     and then issues one Get per peer — n Gets per process, n² total
//     coordinator operations, which is what makes MPI_Init visibly
//     slower than FMI_Init in Fig 14.
//
// Both are really executed (real messages, real contention); a CostModel
// additionally converts the measured operation counts into modelled
// wall-clock series at the paper's scale.
package bootstrap

import (
	"errors"
	"sync"
)

// ErrCancelled is returned when a bootstrap participant is cancelled
// (its process died or recovery was aborted).
var ErrCancelled = errors.New("bootstrap: cancelled")

// Coordinator is the rendezvous service owned by the process manager
// (fmirun). It provides keyed all-gathers (used for endpoint exchange
// each recovery round) and a PMI-like key-value space.
type Coordinator struct {
	mu      sync.Mutex
	gathers map[string]*gatherState
	kvs     map[string][]byte
	kvWait  map[string][]chan []byte
	ops     uint64 // total coordinator-side operations served
}

type gatherState struct {
	n       int
	vals    map[int][]byte
	waiters []chan gatherResult
	done    bool
	result  [][]byte
	aborted error
}

type gatherResult struct {
	vals [][]byte
	err  error
}

// NewCoordinator creates an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		gathers: make(map[string]*gatherState),
		kvs:     make(map[string][]byte),
		kvWait:  make(map[string][]chan []byte),
	}
}

// Ops returns the number of operations the coordinator has served;
// bootstrap cost accounting uses it to compare algorithms.
func (c *Coordinator) Ops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// AllGather contributes val for rank under the given key and blocks
// until all n participants have contributed, returning the values
// indexed by rank. All participants must agree on n. cancel aborts the
// wait — unless the gather completed by then: a peer the gather
// released may be what fired cancel (its teardown closes the rings
// that notify failures), and a rank cancelled out of a gather every
// rank passed would wait for a recovery that never comes.
func (c *Coordinator) AllGather(key string, rank, n int, val []byte, cancel <-chan struct{}) ([][]byte, error) {
	res, ch, err := c.contribute(key, rank, n, val, true)
	if ch == nil {
		return res, err
	}
	select {
	case res := <-ch:
		return res.vals, res.err
	case <-cancel:
		if res, done := c.completed(key); done {
			return res, nil
		}
		return nil, ErrCancelled
	}
}

// completed returns key's result if the gather is complete.
func (c *Coordinator) completed(key string) ([][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.gathers[key]
	if g == nil || !g.done {
		return nil, false
	}
	return g.result, true
}

// TryAllGather is AllGather without the wait: it contributes val and
// returns the values if all n participants have contributed (ok is
// false until then, and for an aborted gather). Calling it again polls.
func (c *Coordinator) TryAllGather(key string, rank, n int, val []byte) (vals [][]byte, ok bool) {
	res, _, err := c.contribute(key, rank, n, val, false)
	return res, err == nil && res != nil
}

// contribute records rank's value under key and returns the result
// when the gather is complete or its error when aborted; otherwise,
// when wait is set, the channel the result will arrive on.
func (c *Coordinator) contribute(key string, rank, n int, val []byte, wait bool) ([][]byte, chan gatherResult, error) {
	c.mu.Lock()
	c.ops++
	g := c.gathers[key]
	if g == nil {
		g = &gatherState{n: n, vals: make(map[int][]byte)}
		c.gathers[key] = g
	}
	if g.aborted != nil {
		err := g.aborted
		c.mu.Unlock()
		return nil, nil, err
	}
	if g.done {
		res := g.result
		c.mu.Unlock()
		return res, nil, nil
	}
	g.vals[rank] = val
	if len(g.vals) == g.n {
		res := make([][]byte, g.n)
		for r, v := range g.vals {
			res[r] = v
		}
		g.done = true
		g.result = res
		waiters := g.waiters
		g.waiters = nil
		c.mu.Unlock()
		for _, w := range waiters {
			w <- gatherResult{vals: res}
		}
		return res, nil, nil
	}
	if !wait {
		c.mu.Unlock()
		return nil, nil, nil
	}
	ch := make(chan gatherResult, 1)
	g.waiters = append(g.waiters, ch)
	c.mu.Unlock()
	return nil, ch, nil
}

// AbortGather fails a pending gather: current and future participants
// of the key receive err. The process manager uses this to unblock
// recovery rounds that were overtaken by another failure.
func (c *Coordinator) AbortGather(key string, err error) {
	c.mu.Lock()
	g := c.gathers[key]
	if g == nil {
		g = &gatherState{aborted: err}
		c.gathers[key] = g
		c.mu.Unlock()
		return
	}
	if g.done || g.aborted != nil {
		c.mu.Unlock()
		return
	}
	g.aborted = err
	waiters := g.waiters
	g.waiters = nil
	c.mu.Unlock()
	for _, w := range waiters {
		w <- gatherResult{err: err}
	}
}

// Barrier blocks until n participants have arrived at key.
func (c *Coordinator) Barrier(key string, rank, n int, cancel <-chan struct{}) error {
	_, err := c.AllGather(key, rank, n, nil, cancel)
	return err
}

// Drop discards the state of a completed or abandoned gather so the
// key can be reused (recovery rounds use fresh keys; Drop is for
// memory hygiene in long jobs).
func (c *Coordinator) Drop(key string) {
	c.mu.Lock()
	delete(c.gathers, key)
	c.mu.Unlock()
}

// Put stores a key-value pair (PMI put).
func (c *Coordinator) Put(key string, val []byte) {
	c.mu.Lock()
	c.ops++
	c.kvs[key] = val
	waiters := c.kvWait[key]
	delete(c.kvWait, key)
	c.mu.Unlock()
	for _, w := range waiters {
		w <- val
	}
}

// Get retrieves a value, blocking until it is Put (PMI get).
func (c *Coordinator) Get(key string, cancel <-chan struct{}) ([]byte, error) {
	c.mu.Lock()
	c.ops++
	if v, ok := c.kvs[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	ch := make(chan []byte, 1)
	c.kvWait[key] = append(c.kvWait[key], ch)
	c.mu.Unlock()
	select {
	case v := <-ch:
		return v, nil
	case <-cancel:
		return nil, ErrCancelled
	}
}
