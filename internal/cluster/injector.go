package cluster

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Fault describes one injected failure. Exactly one trigger is used:
// After (wall-clock since Start) or AfterLoop (the fault fires when any
// rank first reports reaching that loop id via OnLoop). The target is a
// node id, or the node hosting Rank if Node < 0; CorrelatedNodes and
// CorrelatedRanks extend the blast to further victims killed in the
// same event — a correlated failure (shared PSU, rack switch) that
// takes out several members of one checkpoint group at once.
type Fault struct {
	After           time.Duration // time trigger (used if > 0 or AfterLoop < 0)
	AfterLoop       int           // loop-id trigger (used if >= 0); set to -1 for time trigger
	Node            int           // target node id; -1 to target the node hosting Rank
	Rank            int           // target rank (resolved via the Locator); used when Node < 0
	ProcOnly        bool          // kill a single process rather than the whole node
	CorrelatedNodes []int         // additional node ids killed in the same event
	CorrelatedRanks []int         // additional rank-hosting nodes killed in the same event
	// Shadow retargets a rank-targeted fault at the node hosting Rank's
	// shadow copy (replica recovery); Pair kills the rank's primary AND
	// shadow nodes in one correlated event — the unmaskable case. Both
	// resolve through the shadow Locator and are ignored (falling back
	// to the primary target) when none is installed.
	Shadow bool
	Pair   bool
}

// Locator resolves the node currently hosting an FMI rank; the runtime
// provides one so loop/rank-targeted faults can find their victim.
type Locator func(rank int) *Node

// Injector schedules and fires faults against a cluster. It supports
// a deterministic script (for tests and the Fig 13/15 experiments) and
// a Poisson process parameterised by MTBF (paper §VI-B injects
// failures with an MTBF of 1 minute).
type Injector struct {
	mu        sync.Mutex
	c         *Cluster
	locate    Locator
	shadowLoc Locator // resolves the node hosting a rank's shadow copy
	script  []Fault
	mtbf    time.Duration
	maxKill int
	blast   int // nodes killed per Poisson event (adjacent ids)
	rng     *rand.Rand
	started bool
	stopCh  chan struct{}
	fired   int
	// EligibleNodes restricts random Poisson kills to these node ids
	// (so spares and the master are not shot before joining the job).
	eligible func() []*Node
	wg       sync.WaitGroup
}

// NewInjector creates an injector for c. locate may be nil if no
// rank-targeted faults are used; eligible may be nil to target any
// alive node.
func NewInjector(c *Cluster, locate Locator, eligible func() []*Node, seed int64) *Injector {
	return &Injector{
		c:        c,
		locate:   locate,
		eligible: eligible,
		rng:      rand.New(rand.NewSource(seed)),
		stopCh:   make(chan struct{}),
		maxKill:  math.MaxInt,
	}
}

// SetShadowLocator installs the resolver for shadow-targeted faults
// (replica recovery); call before Start.
func (in *Injector) SetShadowLocator(loc Locator) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.shadowLoc = loc
}

// SetScript installs a deterministic fault schedule; call before Start.
func (in *Injector) SetScript(faults []Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.script = append([]Fault{}, faults...)
}

// SetPoisson enables random node failures with the given MTBF; at most
// maxKill failures are injected (<=0 means unlimited).
func (in *Injector) SetPoisson(mtbf time.Duration, maxKill int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.mtbf = mtbf
	if maxKill > 0 {
		in.maxKill = maxKill
	}
}

// SetBlast widens every Poisson event to kill width adjacent node ids
// at once (width <= 1 restores single-node kills). Under the block
// rank-to-node mapping adjacent nodes host members of the same
// checkpoint group, so a blast of w stresses w-loss recovery.
func (in *Injector) SetBlast(width int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blast = width
}

// Fired returns the number of faults injected so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Start arms the time-triggered faults and the Poisson process.
func (in *Injector) Start() {
	in.mu.Lock()
	if in.started {
		in.mu.Unlock()
		return
	}
	in.started = true
	script := append([]Fault{}, in.script...)
	mtbf := in.mtbf
	in.mu.Unlock()

	for _, f := range script {
		if f.AfterLoop >= 0 && f.After == 0 {
			continue // loop-triggered; fired via OnLoop
		}
		f := f
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			//fmilint:ignore simtime the injector's time triggers deliberately model wall-clock failure arrival against a live run
			t := time.NewTimer(f.After)
			defer t.Stop()
			select {
			case <-t.C:
				in.fire(f)
			case <-in.stopCh:
			}
		}()
	}
	if mtbf > 0 {
		in.wg.Add(1)
		go in.poissonLoop(mtbf)
	}
}

// Stop disarms all pending faults.
func (in *Injector) Stop() {
	in.mu.Lock()
	if in.stopCh != nil {
		select {
		case <-in.stopCh:
		default:
			close(in.stopCh)
		}
	}
	in.mu.Unlock()
	in.wg.Wait()
}

// OnLoop is called by the runtime when a rank completes a loop
// iteration; it fires any pending loop-triggered faults for that id.
func (in *Injector) OnLoop(rank, loopID int) {
	var due []Fault
	in.mu.Lock()
	rest := in.script[:0]
	for _, f := range in.script {
		if f.AfterLoop >= 0 && f.After == 0 && loopID >= f.AfterLoop {
			due = append(due, f)
		} else {
			rest = append(rest, f)
		}
	}
	in.script = rest
	in.mu.Unlock()
	for _, f := range due {
		in.fire(f)
	}
}

func (in *Injector) fire(f Fault) {
	in.mu.Lock()
	if in.fired >= in.maxKill {
		in.mu.Unlock()
		return
	}
	in.fired++
	in.mu.Unlock()

	victims := in.resolve(f)
	if len(victims) == 0 {
		return
	}
	if f.ProcOnly {
		procs := victims[0].Procs()
		if len(procs) > 0 {
			procs[0].Kill()
		}
		return
	}
	// All victims of a correlated fault drop in the same event, before
	// any detection or recovery can run.
	in.c.FailNodes(victims)
}

// resolve maps a fault to its distinct, still-alive victim nodes: the
// primary target first, then the correlated ones.
func (in *Injector) resolve(f Fault) []*Node {
	var nds []*Node
	add := func(nd *Node) {
		if nd == nil || nd.Failed() {
			return
		}
		for _, have := range nds {
			if have.ID == nd.ID {
				return
			}
		}
		nds = append(nds, nd)
	}
	in.mu.Lock()
	shadowLoc := in.shadowLoc
	in.mu.Unlock()
	switch {
	case f.Node >= 0:
		add(in.c.Node(f.Node))
	case f.Pair && in.locate != nil:
		// Pair loss: primary first, shadow in the same event.
		add(in.locate(f.Rank))
		if shadowLoc != nil {
			add(shadowLoc(f.Rank))
		}
	case f.Shadow && shadowLoc != nil:
		add(shadowLoc(f.Rank))
	case in.locate != nil:
		add(in.locate(f.Rank))
	}
	for _, id := range f.CorrelatedNodes {
		add(in.c.Node(id))
	}
	if in.locate != nil {
		for _, r := range f.CorrelatedRanks {
			add(in.locate(r))
		}
	}
	return nds
}

func (in *Injector) poissonLoop(mtbf time.Duration) {
	defer in.wg.Done()
	for {
		in.mu.Lock()
		if in.fired >= in.maxKill {
			in.mu.Unlock()
			return
		}
		// Exponential inter-arrival time with mean MTBF.
		d := time.Duration(in.rng.ExpFloat64() * float64(mtbf))
		in.mu.Unlock()
		//fmilint:ignore simtime Poisson inter-arrival sleeps deliberately model wall-clock MTBF against a live run
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-in.stopCh:
			t.Stop()
			return
		}
		nd := in.pickVictim()
		if nd != nil {
			f := Fault{Node: nd.ID, AfterLoop: -1}
			in.mu.Lock()
			blast := in.blast
			in.mu.Unlock()
			for w := 1; w < blast; w++ {
				f.CorrelatedNodes = append(f.CorrelatedNodes, nd.ID+w)
			}
			in.fire(f)
		}
	}
}

func (in *Injector) pickVictim() *Node {
	var pool []*Node
	if in.eligible != nil {
		pool = in.eligible()
	} else {
		pool = in.c.Alive()
	}
	alive := pool[:0]
	for _, nd := range pool {
		if !nd.Failed() {
			alive = append(alive, nd)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	in.mu.Lock()
	idx := in.rng.Intn(len(alive))
	in.mu.Unlock()
	return alive[idx]
}
