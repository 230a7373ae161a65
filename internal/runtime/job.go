// Package runtime implements FMI's hierarchical process management
// (paper §IV-B, Fig 6): the master fmirun process at the top, one
// fmirun.task per compute node below it, and the rank processes as
// their children. fmirun owns the machinefile, detects task failures,
// allocates spare nodes (from the reserve, or by waiting on the
// resource manager), respawns lost ranks, and drives the epoch counter
// that sequences recovery rounds.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fmi/internal/bootstrap"
	"fmi/internal/bufpool"
	"fmi/internal/cluster"
	"fmi/internal/coll"
	"fmi/internal/core"
	"fmi/internal/pfs"
	"fmi/internal/replica"
	"fmi/internal/scr"
	"fmi/internal/trace"
	"fmi/internal/transport"
	"fmi/internal/view"
)

// App is the application body executed by every rank.
type App func(p *core.Proc) error

// Config configures a job launch.
type Config struct {
	Ranks        int
	ProcsPerNode int
	SpareNodes   int
	Interval     int           // checkpoint interval; 0 = auto (needs MTBF)
	MTBF         time.Duration // expected failure rate for auto-tuning
	GroupSize    int
	RingBase     int
	// Redundancy is the per-member parity shard count m: 1 = ring-XOR
	// (default), >= 2 = Reed-Solomon RS(k,m) tolerating m losses per
	// checkpoint group.
	Redundancy int
	// L2Every enables multilevel C/R: every L2Every-th checkpoint is
	// flushed to the parallel file system, letting the job recover
	// failures beyond the XOR groups' reach (0 disables level 2).
	L2Every int
	// Recovery selects the recovery protocol: "global" (default, the
	// paper's Fig 5 rollback of every rank), "local" (sender-based
	// message logging; only respawned ranks roll back and replay), or
	// "replica" (every rank runs as a primary/shadow pair on distinct
	// nodes; a primary loss is masked by promoting the shadow in place
	// — no rollback, no replay). Replica mode requires an explicit
	// Interval (the MTBF auto-tuner uses wall-clock EWMAs that would
	// desynchronise the lockstep pair) and ProcsPerNode == 1 (pairs
	// are placed per node).
	Recovery string
	// SCR is the storage manager used for level-2 checkpoints;
	// created over a Lustre-like PFS model if nil and L2Every > 0.
	SCR     *scr.Manager
	Network transport.Network
	Cluster *cluster.Cluster         // created if nil
	RM      *cluster.ResourceManager // created over spare nodes if nil
	// Machine, when non-nil, is an explicit machinefile: ranks
	// [i*ProcsPerNode, (i+1)*ProcsPerNode) run on Machine[i]. It lets
	// an external scheduler (the fmiserve job service) place a job on
	// nodes carved out of a shared cluster instead of the default
	// block mapping onto node ids 0..n-1. Every listed node must
	// belong to Cluster and be healthy at launch.
	Machine []*cluster.Node
	Stats   *core.Stats // created if nil
	// OnLoop is invoked when a rank reports completing a loop
	// iteration (the fault injector hooks in here).
	OnLoop func(rank, loopID int)
	// MaxEpochs aborts the job after this many recovery rounds
	// (safety valve; 0 = 1024).
	MaxEpochs int
	// ProvisionDelay is how long the resource manager takes to deliver
	// a brand-new node once the spare pool is exhausted.
	ProvisionDelay time.Duration
	// Trace, when non-nil, records the job's lifecycle timeline.
	Trace *trace.Recorder
	// Timeout aborts the job if it has not completed in time
	// (0 = none).
	Timeout time.Duration
	// Coll selects collective algorithms per operation (zero value =
	// automatic size/comm-size selection).
	Coll coll.Policy
	// Pool is the job-wide buffer arena shared by the transport and
	// every rank's runtime (nil disables pooling).
	Pool *bufpool.Arena
	// OnNodeRetired, when non-nil, intercepts each node freed by a
	// shrink fence. Return true to take ownership of the node (the job
	// service returns it to the shared broker pool); false routes it
	// to the job's own spare pool.
	OnNodeRetired func(nd *cluster.Node) bool
	// OnViewChange, when non-nil, runs after every committed view
	// change with the installed view and the ids of nodes freed by a
	// shrink (empty on grow). The fmi layer hooks the replicated data
	// store's shard rebalance in here.
	OnViewChange func(v *view.View, freedNodes []int)
	// Elastic permits online grow/shrink reconfiguration. When false,
	// Resize/RequestResize are rejected and the membership stays fixed
	// for the life of the job.
	Elastic bool
}

// Errors reported by the job manager.
var (
	ErrJobAborted      = errors.New("fmirun: job aborted")
	ErrTooManyFailures = errors.New("fmirun: recovery limit exceeded")
	// ErrEpochWaitCancelled is returned by AwaitEpoch when the caller's
	// cancel channel fires — the waiting process was killed, not the
	// job. It wraps core.ErrKilled so the rank runtime can distinguish
	// its own death (unwind quietly) from a job-level failure (abort);
	// an external caller holding the Job handle gets an error that is
	// unambiguous about which of the two happened.
	ErrEpochWaitCancelled = fmt.Errorf("fmirun: epoch wait cancelled: %w", core.ErrKilled)
)

// Report summarises a completed run.
type Report struct {
	Stats          core.StatsSnapshot
	Epochs         uint32 // recovery rounds performed
	WallTime       time.Duration
	NodesUsed      int
	SparesConsumed int
	MaxLoopID      int
	AppErrors      []error
}

// Job is the fmirun master.
type Job struct {
	cfg   Config
	coord *bootstrap.Coordinator
	clu   *cluster.Cluster
	rm    *cluster.ResourceManager
	stats *core.Stats

	mu          sync.Mutex
	epoch       uint32
	epochWait   []epochWaiter
	epochChans  map[uint32]chan struct{} // closed when epoch exceeds key
	rankNode    []int                    // rank -> node id currently hosting it
	rankProc    []*cluster.Proc          // rank -> current process
	rankDone    []bool                   // rank's app returned cleanly
	tasks       map[int]*task            // node id -> task
	doneCount   int
	appErrs     []error
	abortErr    error
	abortCh     chan struct{}
	doneCh      chan struct{}
	maxLoop     int
	spareUsed   int
	app         App
	failedNodes map[int]bool
	finCh       chan struct{}  // closed on completion or abort (Done)
	rep         *repState      // replica recovery state; nil otherwise
	procs       sync.WaitGroup // one per rank or shadow process goroutine

	view       *view.View   // current membership view (never nil after Launch)
	resize     *resizeState // armed view-change fence; nil when idle
	ticketSeq  uint64
	finalizing bool // some rank entered Finalize; no further resizes
}

// repState holds the replica-recovery bookkeeping (guarded by Job.mu
// except for reg, which has its own lock).
type repState struct {
	reg        *replica.Registry
	shadowNode []int           // rank -> node id hosting its shadow (-1 = none)
	shadowProc []*cluster.Proc // rank -> shadow process (nil = none)
	degraded   bool            // pair loss forced a fall-back to rollback recovery
}

type epochWaiter struct {
	min uint32
	ch  chan uint32
}

// Run launches the job and blocks until every rank's app returns or
// the job aborts.
func Run(cfg Config, app App) (*Report, error) {
	j, err := Launch(cfg, app)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// Launch starts the job without waiting (tests use the handle).
func Launch(cfg Config, app App) (*Job, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("fmirun: Ranks must be positive")
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 1
	}
	if cfg.Network == nil {
		cfg.Network = transport.NewChanNetwork(transport.Options{DetectDelay: 2 * time.Millisecond, PropDelay: time.Millisecond})
	}
	if cfg.Stats == nil {
		cfg.Stats = &core.Stats{}
	}
	if cfg.MaxEpochs == 0 {
		cfg.MaxEpochs = 1024
	}
	if cfg.L2Every > 0 && cfg.SCR == nil {
		cfg.SCR = scr.NewManager(pfs.SierraTmpfs(), pfs.NewShared("pfs", pfs.LustrePFS()))
	}
	replicated := cfg.Recovery == "replica"
	if replicated {
		if cfg.ProcsPerNode != 1 {
			return nil, fmt.Errorf("fmirun: replica recovery requires ProcsPerNode == 1 (got %d)", cfg.ProcsPerNode)
		}
		if cfg.Interval <= 0 {
			return nil, fmt.Errorf("fmirun: replica recovery requires an explicit Interval (the MTBF auto-tuner would desynchronise primary/shadow pairs)")
		}
	}
	nodes := (cfg.Ranks + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	totalNodes := nodes
	if replicated {
		totalNodes = 2 * nodes // one shadow node per primary node
	}
	clu := cfg.Cluster
	if clu == nil {
		clu = cluster.New(totalNodes + cfg.SpareNodes)
	}
	rm := cfg.RM
	if rm == nil {
		var spares []*cluster.Node
		for i := totalNodes; i < totalNodes+cfg.SpareNodes; i++ {
			if nd := clu.Node(i); nd != nil {
				spares = append(spares, nd)
			}
		}
		rm = cluster.NewResourceManager(clu, spares)
		rm.ProvisionDelay = cfg.ProvisionDelay
	}
	j := &Job{
		cfg:         cfg,
		coord:       bootstrap.NewCoordinator(),
		clu:         clu,
		rm:          rm,
		stats:       cfg.Stats,
		epochChans:  make(map[uint32]chan struct{}),
		rankNode:    make([]int, cfg.Ranks),
		rankProc:    make([]*cluster.Proc, cfg.Ranks),
		rankDone:    make([]bool, cfg.Ranks),
		tasks:       make(map[int]*task),
		abortCh:     make(chan struct{}),
		doneCh:      make(chan struct{}),
		app:         app,
		failedNodes: make(map[int]bool),
		finCh:       make(chan struct{}),
	}
	if replicated {
		j.rep = &repState{
			reg:        replica.NewRegistry(cfg.Ranks),
			shadowNode: make([]int, cfg.Ranks),
			shadowProc: make([]*cluster.Proc, cfg.Ranks),
		}
		for r := range j.rep.shadowNode {
			j.rep.shadowNode[r] = -1
		}
	}
	go func() {
		select {
		case <-j.doneCh:
		case <-j.abortCh:
		}
		close(j.finCh)
	}()

	// Initial placement: block mapping, procsPerNode consecutive ranks
	// per node — the machinefile of Fig 6, either the default identity
	// mapping onto node ids 0..n-1 or an explicit cfg.Machine list. In
	// replica mode the machinefile carries nodes extra slots: rank r's
	// shadow runs on Machine[nodes+r], which must differ from its
	// primary's node (anti-affinity — a pair on one node is no pair).
	if cfg.Machine != nil && len(cfg.Machine) < totalNodes {
		return nil, fmt.Errorf("fmirun: machinefile has %d nodes, need %d", len(cfg.Machine), totalNodes)
	}
	if replicated && cfg.Machine != nil {
		for r := 0; r < cfg.Ranks; r++ {
			if cfg.Machine[r] != nil && cfg.Machine[nodes+r] != nil && cfg.Machine[r].ID == cfg.Machine[nodes+r].ID {
				return nil, fmt.Errorf("fmirun: replica anti-affinity violated: rank %d primary and shadow both placed on node %d", r, cfg.Machine[r].ID)
			}
		}
	}
	perNode := make(map[int][]int) // machinefile slot -> ranks
	for r := 0; r < cfg.Ranks; r++ {
		slot := r / cfg.ProcsPerNode
		perNode[slot] = append(perNode[slot], r)
	}
	// Resolve every slot's node and install the launch view before any
	// rank spawns: procs adopt their world from the view, so it must
	// exist first.
	type slotPlan struct {
		t     *task
		ranks []int
	}
	var plans []slotPlan
	for slot, ranks := range perNode {
		var nd *cluster.Node
		if cfg.Machine != nil {
			nd = cfg.Machine[slot]
		} else {
			nd = clu.Node(slot)
		}
		if nd == nil {
			return nil, fmt.Errorf("fmirun: machinefile slot %d has no node", slot)
		}
		for _, r := range ranks {
			j.rankNode[r] = nd.ID
		}
		t := newTask(j, nd)
		j.mu.Lock()
		j.tasks[nd.ID] = t
		j.mu.Unlock()
		plans = append(plans, slotPlan{t: t, ranks: ranks})
	}
	j.view = view.New(cfg.Ranks, cfg.ProcsPerNode, cfg.GroupSize, j.rankNode)
	cfg.Trace.AddView(trace.KindViewChange, -1, 0, j.view.Version, "launch %s installed", j.view)
	for _, pl := range plans {
		for _, r := range pl.ranks {
			if err := j.spawnRank(pl.t, r, 0, false, 0); err != nil {
				return nil, err
			}
		}
	}
	if replicated {
		for r := 0; r < cfg.Ranks; r++ {
			var nd *cluster.Node
			if cfg.Machine != nil {
				nd = cfg.Machine[nodes+r]
			} else {
				nd = clu.Node(nodes + r)
			}
			if nd == nil {
				return nil, fmt.Errorf("fmirun: machinefile shadow slot %d has no node", nodes+r)
			}
			nt := newShadowTask(j, nd)
			j.mu.Lock()
			j.tasks[nd.ID] = nt
			j.rep.shadowNode[r] = nd.ID
			j.mu.Unlock()
			if err := j.spawnShadow(nt, r, false, 0, 0); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Timeout > 0 {
		go func() {
			t := time.NewTimer(cfg.Timeout)
			defer t.Stop()
			select {
			case <-t.C:
				j.Abort(fmt.Errorf("%w: timeout after %v", ErrJobAborted, cfg.Timeout))
			case <-j.doneCh:
			case <-j.abortCh:
			}
		}()
	}
	return j, nil
}

// Done returns a channel closed once the job has finished — every
// rank's app returned or the job aborted. It makes the handle
// select-able: an external control plane (the fmiserve job service)
// multiplexes many jobs without parking a goroutine in Wait per job.
// After Done closes, Wait returns immediately with the report.
func (j *Job) Done() <-chan struct{} { return j.finCh }

// Wait blocks until the job finishes and assembles the report.
func (j *Job) Wait() (*Report, error) {
	start := time.Now()
	select {
	case <-j.doneCh:
	case <-j.abortCh:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rep := &Report{
		Stats:          j.stats.Snapshot(),
		Epochs:         j.epoch,
		WallTime:       time.Since(start),
		NodesUsed:      len(j.tasks),
		SparesConsumed: j.spareUsed,
		MaxLoopID:      j.maxLoop,
		AppErrors:      append([]error{}, j.appErrs...),
	}
	if j.abortErr != nil {
		return rep, j.abortErr
	}
	if len(rep.AppErrors) > 0 {
		return rep, fmt.Errorf("fmirun: %d ranks returned errors (first: %w)", len(rep.AppErrors), rep.AppErrors[0])
	}
	return rep, nil
}

// AwaitExit waits up to timeout for every rank and shadow process the
// job started to return — a finished job reaps its shadows and a
// killed process unwinds asynchronously — and reports whether all did.
func (j *Job) AwaitExit(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		j.procs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Coordinator implements core.Control.
func (j *Job) Coordinator() *bootstrap.Coordinator { return j.coord }

// AwaitEpoch implements core.Control.
func (j *Job) AwaitEpoch(min uint32, cancel <-chan struct{}) (uint32, error) {
	j.mu.Lock()
	if j.epoch >= min {
		e := j.epoch
		j.mu.Unlock()
		return e, nil
	}
	w := epochWaiter{min: min, ch: make(chan uint32, 1)}
	j.epochWait = append(j.epochWait, w)
	j.mu.Unlock()
	select {
	case e := <-w.ch:
		return e, nil
	case <-cancel:
		return 0, ErrEpochWaitCancelled
	case <-j.abortCh:
		return 0, ErrJobAborted
	}
}

// EpochNotify implements core.Control: the returned channel closes
// when the job epoch first exceeds e.
func (j *Job) EpochNotify(e uint32) <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch, ok := j.epochChans[e]
	if !ok {
		ch = make(chan struct{})
		j.epochChans[e] = ch
		if j.epoch > e {
			close(ch)
		}
	}
	return ch
}

// ReportLoop implements core.Control.
func (j *Job) ReportLoop(rank, loopID int) {
	j.mu.Lock()
	if loopID > j.maxLoop {
		j.maxLoop = loopID
	}
	hook := j.cfg.OnLoop
	j.mu.Unlock()
	if hook != nil {
		hook(rank, loopID)
	}
}

// Abort implements core.Control: tear the whole job down.
func (j *Job) Abort(err error) {
	j.mu.Lock()
	if j.abortErr == nil {
		j.abortErr = err
	}
	select {
	case <-j.abortCh:
		j.mu.Unlock()
		return
	default:
	}
	close(j.abortCh)
	procs := append([]*cluster.Proc{}, j.rankProc...)
	if j.rep != nil {
		for r, cp := range j.rep.shadowProc {
			if cp != nil {
				procs = append(procs, cp)
			}
			if nd := j.rep.shadowNode[r]; nd >= 0 {
				if st := j.tasks[nd]; st != nil {
					st.silence()
				}
			}
		}
	}
	j.mu.Unlock()
	j.cfg.Trace.Add(trace.KindAbort, -1, 0, "job aborted: %v", err)
	for _, p := range procs {
		if p != nil {
			p.Kill()
		}
	}
}

// NodeOfRank returns the node currently hosting a rank (fault
// injectors target through this).
func (j *Job) NodeOfRank(rank int) *cluster.Node {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rank < 0 || rank >= len(j.rankNode) {
		return nil
	}
	return j.clu.Node(j.rankNode[rank])
}

// ActiveNodes returns the nodes currently hosting ranks.
func (j *Job) ActiveNodes() []*cluster.Node {
	j.mu.Lock()
	defer j.mu.Unlock()
	seen := map[int]bool{}
	var out []*cluster.Node
	for _, ndID := range j.rankNode {
		if !seen[ndID] {
			seen[ndID] = true
			if nd := j.clu.Node(ndID); nd != nil && !nd.Failed() {
				out = append(out, nd)
			}
		}
	}
	return out
}

// AddSpareNode provisions a fresh node at runtime and adds it to the
// spare pool — the paper's §III-A dynamic node join ("FMI also
// provides a capability for compute nodes to join or leave the job
// dynamically, primarily to replace failed nodes with spare nodes").
func (j *Job) AddSpareNode() *cluster.Node {
	nd := j.clu.AddNode()
	j.rm.AddSpare(nd)
	return nd
}

// Epoch returns the current job epoch.
func (j *Job) Epoch() uint32 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// spawnRank starts one rank process on the task's node. startLoop is
// non-zero only for ranks joining through a grow fence: they enter
// the application loop at the fence's cut iteration.
func (j *Job) spawnRank(t *task, rank int, epoch uint32, replacement bool, startLoop int) error {
	cp, err := t.node.Spawn()
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.endedLocked() {
		// Abort already reaped the ranks it knew of; this one never runs.
		j.mu.Unlock()
		cp.Exit(nil)
		return nil
	}
	j.rankProc[rank] = cp
	j.rankNode[rank] = t.node.ID
	v := j.view
	j.procs.Add(1)
	j.mu.Unlock()
	t.addChild(rank, cp)

	cfg := core.Config{
		Rank: rank, N: v.Ranks,
		View:          v,
		StartLoop:     startLoop,
		ProcsPerNode:  j.cfg.ProcsPerNode,
		Epoch:         epoch,
		IsReplacement: replacement,
		Interval:      j.cfg.Interval,
		MTBF:          j.cfg.MTBF,
		GroupSize:     j.cfg.GroupSize,
		RingBase:      j.cfg.RingBase,
		Redundancy:    j.cfg.Redundancy,
		L2Every:       j.cfg.L2Every,
		L2:            j.cfg.SCR,
		Local:         j.cfg.Recovery == "local",
		Node:          t.node.ID,
		Network:       j.cfg.Network,
		Replica:       j.replicaReg(),
		Ctl:           j,
		KillCh:        cp.KillCh(),
		Stats:         j.stats,
		Trace:         j.cfg.Trace,
		Coll:          j.cfg.Coll,
		Pool:          j.cfg.Pool,
	}
	go func() {
		defer j.procs.Done()
		defer func() {
			if v := recover(); v != nil {
				if core.IsKilledPanic(v) {
					return // task learned via KillCh
				}
				cp.Exit(fmt.Errorf("fmirun: rank %d panicked: %v", rank, v))
				return
			}
		}()
		p, err := core.Init(cfg)
		if err != nil {
			if errors.Is(err, core.ErrKilled) {
				return // killed during init; the task learned via KillCh
			}
			cp.Exit(fmt.Errorf("fmirun: rank %d init: %w", rank, err))
			return
		}
		cp.Exit(j.app(p))
	}()
	return nil
}

// endedLocked reports whether the job completed or aborted; a process
// spawned after that has no job to run in. Caller holds j.mu.
func (j *Job) endedLocked() bool {
	select {
	case <-j.abortCh:
		return true
	default:
		return j.doneCount >= len(j.rankDone)
	}
}

// rankFinished records a clean exit.
func (j *Job) rankFinished(rank int, err error) {
	j.mu.Lock()
	if rank >= len(j.rankDone) || j.rankDone[rank] {
		j.mu.Unlock()
		return
	}
	j.rankDone[rank] = true
	if err != nil {
		j.appErrs = append(j.appErrs, fmt.Errorf("rank %d: %w", rank, err))
	}
	j.doneCount++
	done := j.doneCount >= len(j.rankDone)
	// A finished rank can be the last missing ack or arrival of an
	// armed fence.
	if !done && j.resize != nil && !j.resize.committing {
		j.maybeDecideCutLocked(j.resize)
		j.maybeCommitLocked(j.resize)
	}
	j.mu.Unlock()
	if done {
		select {
		case <-j.doneCh:
		default:
			close(j.doneCh)
		}
		j.killShadows()
	}
}

// replicaCopyFailed handles an application error returned by one copy
// of a replicated rank, primary or shadow: it aborts the job with it.
// The other copy would otherwise wait for its partner's next
// checkpoint (pair pacing) until the job timed out. It reports false,
// leaving the error to the caller, when replication is off or
// degraded; after the job ended the error is moot (shadows unwind as
// they are reaped) and it reports true.
func (j *Job) replicaCopyFailed(rank int, shadow bool, err error) bool {
	j.mu.Lock()
	active := j.rep != nil && j.rep.reg.Active()
	ended := j.endedLocked()
	j.mu.Unlock()
	switch {
	case ended:
		return true
	case !active:
		return false
	case shadow:
		err = fmt.Errorf("rank %d (shadow copy): %w", rank, err)
	default:
		err = fmt.Errorf("rank %d: %w", rank, err)
	}
	j.Abort(err)
	return true
}

// taskFailed handles an fmirun.task failure report. In replica mode
// the failure is first offered to the replication layer, which masks
// primary losses (shadow promotion) and shadow losses (background
// reprovision); only an unmaskable pair loss — or any failure once the
// pair machinery has been degraded — reaches the rollback path.
func (j *Job) taskFailed(t *task) {
	if j.replicaHandle(t) {
		return
	}
	j.failNode(t)
}

// failNode is the rollback-recovery failure path (paper §IV-B): bump
// the epoch, unblock stale rendezvous, allocate a replacement node,
// and respawn the lost ranks.
func (j *Job) failNode(t *task) {
	j.mu.Lock()
	if j.failedNodes[t.node.ID] {
		j.mu.Unlock()
		return
	}
	j.failedNodes[t.node.ID] = true
	// A failure during an uncommitted resize fence aborts the fence:
	// parked ranks are released to recover normally under the old view
	// and the resize re-collects its acks once recovery settles. A
	// failure after the commit point is an ordinary failure in the new
	// view.
	if rs := j.resize; rs != nil && !rs.committing {
		j.abortFenceLocked(rs, "node failure")
	}
	oldEpoch := j.epoch
	newEpoch := j.advanceEpochLocked()
	j.cfg.Trace.Add(trace.KindNodeFailed, -1, oldEpoch, "node %d failed", t.node.ID)
	j.cfg.Trace.Add(trace.KindEpoch, -1, newEpoch, "epoch advanced to %d", newEpoch)
	if int(newEpoch) > j.cfg.MaxEpochs {
		j.mu.Unlock()
		j.Abort(fmt.Errorf("%w: %d epochs", ErrTooManyFailures, newEpoch))
		return
	}
	// Ranks lost with the node, excluding already-finished ones.
	var lost []int
	for r, nd := range j.rankNode {
		if nd == t.node.ID && !j.rankDone[r] {
			lost = append(lost, r)
		}
	}
	delete(j.tasks, t.node.ID)
	j.mu.Unlock()

	// Unblock every rendezvous of the superseded epoch.
	for _, prefix := range []string{"h1", "avail", "h3", "replay", "finalize"} {
		j.coord.AbortGather(fmt.Sprintf("%s/%d", prefix, oldEpoch), core.ErrFailureDetected)
	}

	if len(lost) == 0 {
		return
	}
	// Allocate a spare and respawn; this may block on the resource
	// manager, which is exactly the paper's "fmirun waits until new
	// nodes are allocated".
	go func() {
		nd, err := j.rm.Allocate(j.abortCh)
		if err != nil {
			j.Abort(fmt.Errorf("%w: no spare node: %v", ErrJobAborted, err))
			return
		}
		j.mu.Lock()
		j.spareUsed++
		nt := newTask(j, nd)
		j.tasks[nd.ID] = nt
		j.mu.Unlock()
		j.cfg.Trace.Add(trace.KindSpareAlloc, -1, newEpoch, "node %d allocated for ranks %v", nd.ID, lost)
		for _, r := range lost {
			j.mu.Lock()
			stale := r >= len(j.rankDone)
			j.mu.Unlock()
			if stale {
				continue // retired by a shrink fence that raced the respawn
			}
			j.cfg.Trace.Add(trace.KindRespawn, r, newEpoch, "respawned on node %d", nd.ID)
			if err := j.spawnRank(nt, r, newEpoch, true, 0); err != nil {
				j.Abort(fmt.Errorf("%w: respawn rank %d: %v", ErrJobAborted, r, err))
				return
			}
		}
	}()
}

// advanceEpochLocked bumps the job epoch and wakes epoch waiters and
// notification channels. Caller holds j.mu.
func (j *Job) advanceEpochLocked() uint32 {
	j.epoch++
	newEpoch := j.epoch
	var still []epochWaiter
	for _, w := range j.epochWait {
		if newEpoch >= w.min {
			w.ch <- newEpoch
		} else {
			still = append(still, w)
		}
	}
	j.epochWait = still
	for e, ch := range j.epochChans {
		if newEpoch > e {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	}
	return newEpoch
}

// replicaReg returns the shared replica registry (nil outside replica
// mode) for wiring into rank processes.
func (j *Job) replicaReg() *replica.Registry {
	if j.rep == nil {
		return nil
	}
	return j.rep.reg
}

// ShadowNodeOfRank returns the node currently hosting a rank's shadow
// copy, or nil (fault injectors target shadow/pair kills through
// this).
func (j *Job) ShadowNodeOfRank(rank int) *cluster.Node {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rep == nil || rank < 0 || rank >= len(j.rep.shadowNode) {
		return nil
	}
	nd := j.rep.shadowNode[rank]
	if nd < 0 {
		return nil
	}
	return j.clu.Node(nd)
}

// replicaHandle offers a task failure to the replication layer.
// Returns true when the failure was absorbed (masked, duplicate, or
// handed to failNode after degrading); false when the plain rollback
// path should handle it.
func (j *Job) replicaHandle(t *task) bool {
	if j.rep == nil {
		return false
	}
	select {
	case <-j.doneCh:
		return true // completion teardown, not a failure
	case <-j.abortCh:
		return true
	default:
	}
	j.mu.Lock()
	if !j.rep.reg.Active() {
		j.mu.Unlock()
		return false // degraded: rollback recovery owns failures now
	}
	if j.failedNodes[t.node.ID] {
		j.mu.Unlock()
		return true // duplicate report
	}
	// With ProcsPerNode == 1 a node hosts exactly one copy: either some
	// rank's acting primary or some rank's shadow.
	primRank, shadRank := -1, -1
	for r, nd := range j.rankNode {
		if nd == t.node.ID && !j.rankDone[r] {
			primRank = r
		}
	}
	for r, nd := range j.rep.shadowNode {
		if nd == t.node.ID {
			shadRank = r
		}
	}
	if primRank < 0 && shadRank < 0 {
		// Hosts nothing live (e.g. its rank already finished).
		j.failedNodes[t.node.ID] = true
		j.mu.Unlock()
		return true
	}
	if primRank < 0 {
		// Shadow loss: fully masked. The primary keeps running; mirrored
		// sends to the dead endpoint vanish at the transport. Re-arm
		// protection by provisioning a replacement shadow in the
		// background.
		j.failedNodes[t.node.ID] = true
		j.rep.reg.DropShadow(shadRank)
		j.rep.shadowNode[shadRank] = -1
		j.rep.shadowProc[shadRank] = nil
		delete(j.tasks, t.node.ID)
		// The dead shadow can no longer ack or park in an armed fence;
		// drop its observer bookkeeping and re-check progress.
		if rs := j.resize; rs != nil && !rs.committing {
			delete(rs.obsAcks, shadRank)
			delete(rs.obsArrived, shadRank)
			j.maybeDecideCutLocked(rs)
			j.maybeCommitLocked(rs)
		}
		j.mu.Unlock()
		j.cfg.Trace.Add(trace.KindNodeFailed, -1, 0, "node %d failed (shadow of rank %d; masked)", t.node.ID, shadRank)
		go j.reprovisionShadow(shadRank)
		return true
	}
	// Primary loss: promote the shadow in place. No epoch bump, no
	// rollback — the shadow holds identical state and the survivors'
	// mirrored traffic already flows to it.
	if j.rep.reg.Promote(primRank) {
		j.failedNodes[t.node.ID] = true
		shadowNd := j.rep.shadowNode[primRank]
		j.rankNode[primRank] = shadowNd
		j.rankProc[primRank] = j.rep.shadowProc[primRank]
		j.rep.shadowNode[primRank] = -1
		j.rep.shadowProc[primRank] = nil
		delete(j.tasks, t.node.ID)
		if nt := j.tasks[shadowNd]; nt != nil {
			nt.setPrimary()
		}
		// The promoted shadow takes over the dead primary's place in an
		// armed fence: its observer ack/arrival become the rank's
		// participant ack/arrival.
		if rs := j.resize; rs != nil && !rs.committing {
			delete(rs.acks, primRank)
			delete(rs.arrived, primRank)
			if l, ok := rs.obsAcks[primRank]; ok {
				rs.acks[primRank] = l
				delete(rs.obsAcks, primRank)
			}
			if w := rs.obsArrived[primRank]; w != nil {
				rs.arrived[primRank] = w
				delete(rs.obsArrived, primRank)
			}
			j.maybeDecideCutLocked(rs)
			j.maybeCommitLocked(rs)
		}
		j.mu.Unlock()
		j.cfg.Trace.Add(trace.KindNodeFailed, -1, 0, "node %d failed (primary of rank %d)", t.node.ID, primRank)
		j.cfg.Trace.Add(trace.KindShadowPromote, primRank, 0, "shadow on node %d promoted in place (no rollback)", shadowNd)
		go j.reprovisionShadow(primRank)
		return true
	}
	// Pair loss: the rank's shadow is gone too (or not yet synced) —
	// the failure is unmaskable. Degrade permanently to rollback
	// recovery: deactivate the registry (survivors rebuild plain
	// generations), reap the remaining shadows, return their healthy
	// nodes to the spare pool, and let failNode reconstruct the lost
	// rank from its checkpoint group (L1, or the L2/feasibility
	// fallback when the group lost both copies).
	j.rep.degraded = true
	j.rep.reg.Deactivate()
	var reap []*cluster.Proc
	var pool []*cluster.Node
	for r := range j.rep.shadowNode {
		nd := j.rep.shadowNode[r]
		if nd < 0 {
			continue
		}
		if cp := j.rep.shadowProc[r]; cp != nil {
			reap = append(reap, cp)
		}
		if st := j.tasks[nd]; st != nil {
			st.silence()
			delete(j.tasks, nd)
		}
		if n := j.clu.Node(nd); n != nil && !n.Failed() {
			pool = append(pool, n)
		}
		j.rep.shadowNode[r] = -1
		j.rep.shadowProc[r] = nil
	}
	j.mu.Unlock()
	for _, cp := range reap {
		cp.Kill()
	}
	for _, n := range pool {
		j.rm.AddSpare(n)
	}
	j.cfg.Trace.Add(trace.KindNodeFailed, -1, 0, "node %d failed (rank %d pair lost; degrading to rollback recovery)", t.node.ID, primRank)
	j.failNode(t)
	return true
}

// reprovisionShadow allocates a spare node (avoiding the rank's acting
// primary — anti-affinity) and spawns a replacement shadow on it. The
// replacement registers with needSync, re-executes the deterministic
// prologue, and adopts the primary's live state at the next Loop
// boundary (core's shadow-sync protocol). If no spare can be had the
// rank simply runs unprotected: the next primary loss degrades to
// rollback recovery instead of aborting the job.
func (j *Job) reprovisionShadow(rank int) {
	j.mu.Lock()
	avoid := j.rankNode[rank]
	j.mu.Unlock()
	nd, err := j.rm.AllocateAvoiding(j.abortCh, avoid)
	if err != nil {
		j.cfg.Trace.Add(trace.KindShadowReprovision, rank, 0, "no spare for replacement shadow (%v); rank runs unprotected", err)
		return
	}
	j.mu.Lock()
	if j.rep.degraded || rank >= len(j.rankDone) || j.rankDone[rank] || j.endedLocked() {
		j.mu.Unlock()
		j.rm.AddSpare(nd)
		return
	}
	j.spareUsed++
	nt := newShadowTask(j, nd)
	j.tasks[nd.ID] = nt
	j.rep.shadowNode[rank] = nd.ID
	j.mu.Unlock()
	j.cfg.Trace.Add(trace.KindSpareAlloc, -1, 0, "node %d allocated for replacement shadow of rank %d", nd.ID, rank)
	j.cfg.Trace.Add(trace.KindShadowReprovision, rank, 0, "replacement shadow spawning on node %d", nd.ID)
	if err := j.spawnShadow(nt, rank, true, 0, 0); err != nil {
		j.cfg.Trace.Add(trace.KindShadowReprovision, rank, 0, "replacement shadow spawn failed: %v; rank runs unprotected", err)
	}
}

// spawnShadow starts a rank's shadow copy on the task's node. Shadows
// run the same deterministic app in lockstep with their primary but
// report into a private Stats sink (the pair would double-count) and
// carry no trace recorder; loop progress is reported only after
// promotion (shadowCtl). epoch/startLoop are non-zero only for
// shadows of ranks joining through a grow fence.
func (j *Job) spawnShadow(t *task, rank int, needSync bool, epoch uint32, startLoop int) error {
	cp, err := t.node.Spawn()
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.endedLocked() {
		// killShadows or Abort already reaped the shadows it knew of.
		j.mu.Unlock()
		cp.Exit(nil)
		return nil
	}
	j.rep.shadowProc[rank] = cp
	j.rep.shadowNode[rank] = t.node.ID
	v := j.view
	j.procs.Add(1)
	j.mu.Unlock()
	t.addChild(rank, cp)

	cfg := core.Config{
		Rank: rank, N: v.Ranks,
		View:          v,
		StartLoop:     startLoop,
		ProcsPerNode:  j.cfg.ProcsPerNode,
		Epoch:         epoch,
		IsReplacement: needSync,
		Interval:      j.cfg.Interval,
		MTBF:          j.cfg.MTBF,
		GroupSize:     j.cfg.GroupSize,
		RingBase:      j.cfg.RingBase,
		Redundancy:    j.cfg.Redundancy,
		L2Every:       j.cfg.L2Every,
		L2:            j.cfg.SCR,
		Node:          t.node.ID,
		Network:       j.cfg.Network,
		Replica:       j.rep.reg,
		Shadow:        true,
		Ctl:           shadowCtl{j: j, rank: rank},
		KillCh:        cp.KillCh(),
		Stats:         &core.Stats{},
		Coll:          j.cfg.Coll,
		Pool:          j.cfg.Pool,
	}
	go func() {
		defer j.procs.Done()
		defer func() {
			if v := recover(); v != nil {
				if core.IsKilledPanic(v) {
					return // task learned via KillCh
				}
				cp.Exit(fmt.Errorf("fmirun: shadow of rank %d panicked: %v", rank, v))
				return
			}
		}()
		p, err := core.Init(cfg)
		if err != nil {
			if errors.Is(err, core.ErrKilled) {
				return
			}
			cp.Exit(fmt.Errorf("fmirun: shadow of rank %d init: %w", rank, err))
			return
		}
		cp.Exit(j.app(p))
	}()
	return nil
}

// killShadows reaps every remaining shadow at job completion. The
// tasks are silenced first so the deliberate kills are not mistaken
// for node failures.
func (j *Job) killShadows() {
	if j.rep == nil {
		return
	}
	j.mu.Lock()
	var kill []*cluster.Proc
	for r, cp := range j.rep.shadowProc {
		if cp != nil {
			kill = append(kill, cp)
			j.rep.shadowProc[r] = nil
		}
		if nd := j.rep.shadowNode[r]; nd >= 0 {
			if st := j.tasks[nd]; st != nil {
				st.silence()
			}
		}
	}
	j.mu.Unlock()
	for _, cp := range kill {
		cp.Kill()
	}
}

// shadowCtl is the core.Control handed to shadow copies: identical to
// the job's own, except loop progress is reported only once the shadow
// has been promoted to acting primary — the fault injector's AfterLoop
// counting must see each iteration exactly once per rank.
type shadowCtl struct {
	j    *Job
	rank int
}

func (c shadowCtl) Coordinator() *bootstrap.Coordinator { return c.j.coord }

func (c shadowCtl) AwaitEpoch(min uint32, cancel <-chan struct{}) (uint32, error) {
	return c.j.AwaitEpoch(min, cancel)
}

func (c shadowCtl) EpochNotify(e uint32) <-chan struct{} { return c.j.EpochNotify(e) }

func (c shadowCtl) ReportLoop(rank, loopID int) {
	if c.j.rep.reg.Promoted(c.rank) {
		c.j.ReportLoop(rank, loopID)
	}
}

func (c shadowCtl) Abort(err error) { c.j.Abort(err) }

// shadowCtl forwards the view-control surface so shadows observe
// resize fences (core.ViewControl).
func (c shadowCtl) CurrentView() *view.View { return c.j.CurrentView() }
func (c shadowCtl) ResizePending() uint64   { return c.j.ResizePending() }
func (c shadowCtl) JoinResize(ticket uint64, rank, loopID int, observer bool, cancel <-chan struct{}) (core.ResizeOutcome, error) {
	return c.j.JoinResize(ticket, rank, loopID, observer, cancel)
}
func (c shadowCtl) RequestResize(n int) error { return c.j.RequestResize(n) }
func (c shadowCtl) MarkFinalizing(rank int)   { c.j.MarkFinalizing(rank) }
