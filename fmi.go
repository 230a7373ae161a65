// Package fmi is a Go implementation of FMI — the Fault Tolerant
// Messaging Interface of Sato et al. (IPDPS 2014): a survivable
// MPI-like messaging runtime coupled with fast in-memory XOR-encoded
// checkpoint/restart, scalable failure detection over a log-ring
// overlay network, and dynamic spare-node allocation.
//
// Applications are written with MPI-style semantics against an Env and
// run *through* failures: the runtime detects a failed node, allocates
// a spare, respawns the lost ranks, transparently rebuilds
// communicators, rolls every rank back to the last in-memory
// checkpoint, and continues.
//
// The minimal fault-tolerant program mirrors the paper's Fig 3:
//
//	fmi.Run(cfg, func(env *fmi.Env) error {
//	    state := make([]byte, stateSize)
//	    for {
//	        n := env.Loop(state)     // checkpoint / rollback point
//	        if n >= numLoop {
//	            break
//	        }
//	        // ... one iteration using env.World() collectives/p2p;
//	        // on a communication error, just continue to Loop.
//	    }
//	    return env.Finalize()
//	})
//
// The runtime executes ranks as goroutine "processes" on a simulated
// cluster substrate (see DESIGN.md for the substitution table mapping
// each piece to the paper's hardware testbed).
package fmi

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"fmi/internal/bufpool"
	"fmi/internal/cluster"
	"fmi/internal/coll"
	"fmi/internal/core"
	"fmi/internal/replica"
	"fmi/internal/runtime"
	"fmi/internal/trace"
	"fmi/internal/transport"
	"fmi/internal/view"
)

// Comm is an FMI communicator; see the core package for its methods
// (Send, Recv, Sendrecv, Isend/Irecv, Barrier, Bcast, Reduce,
// Allreduce, Gather, Allgather, Scatter, Alltoall, Dup, Split).
type Comm = core.Comm

// Request is a pending nonblocking operation.
type Request = core.Request

// Op combines two equal-length byte buffers element-wise in a
// reduction.
type Op = core.Op

// Stats is a snapshot of runtime statistics aggregated across all
// ranks.
type Stats = core.StatsSnapshot

// TraceEvent is one entry of a run's recovery timeline (enable with
// Config.TraceTo or inspect Report.Timeline).
type TraceEvent = trace.Event

// Store is the ReStore-style in-memory replicated object store
// (paper's replication subsystem): Submit publishes an object with
// copies on distinct healthy nodes, Load retrieves it while any copy
// survives, and Rebuild re-replicates degraded objects after node
// failures. Ranks reach the job's store via Env.Store.
type Store = replica.Store

// AnySource matches any sender in Recv.
const AnySource = core.AnySource

// Errors surfaced to applications.
var (
	// ErrFailureDetected is returned by communication calls between a
	// failure notification and the recovery performed by Loop.
	ErrFailureDetected = core.ErrFailureDetected
	// ErrUnrecoverable reports damage beyond level-1 checkpointing
	// (e.g. two nodes of one XOR group lost at once).
	ErrUnrecoverable = core.ErrUnrecoverable
)

// TransportKind selects the communication substrate.
type TransportKind int

const (
	// ChanTransport is the in-process network (default): the
	// low-latency path standing in for InfiniBand verbs.
	ChanTransport TransportKind = iota
	// TCPTransport runs every endpoint on a real loopback TCP socket.
	TCPTransport
)

// PoolingMode controls the shared buffer arena that backs the
// transport frames, collective packing, and checkpoint capture/parity
// buffers. The zero value enables pooling, so existing configurations
// pick up the zero-allocation hot paths without changes.
type PoolingMode int

const (
	// PoolingOn (the default) threads one size-classed arena through
	// the transport, collective, and checkpoint hot paths; steady-state
	// traffic recycles buffers instead of allocating.
	PoolingOn PoolingMode = iota
	// PoolingOff disables the arena: every hot path falls back to plain
	// allocation. Contents are byte-identical to PoolingOn — the mode
	// only changes where buffers come from.
	PoolingOff
	// PoolingDebug uses the leak-checkable arena: every Get records its
	// call site, double releases panic, and outstanding buffers can be
	// audited. Slower; for tests and debugging only.
	PoolingDebug
)

// Fault is one scripted failure. The zero AfterLoop value of 0 fires
// on the first completed loop; set AfterLoop to -1 to use the time
// trigger instead.
type Fault struct {
	After     time.Duration // fire this long after launch (AfterLoop must be -1)
	AfterLoop int           // fire once any rank completes this loop id
	Rank      int           // target the node hosting this rank (when Node < 0)
	Node      int           // explicit node id target; -1 targets via Rank
	ProcOnly  bool          // kill a single process; its siblings follow (§IV-B)
	// CorrelatedNodes / CorrelatedRanks extend the kill to further
	// nodes in the same event — a correlated failure (shared PSU, rack
	// switch) that can take several members of one checkpoint group
	// down at once. Surviving such an event requires Redundancy >= the
	// number of group members lost.
	CorrelatedNodes []int
	CorrelatedRanks []int
	// Shadow retargets a rank-targeted fault at the node hosting Rank's
	// shadow copy (Recovery "replica" only); Pair kills the rank's
	// primary and shadow nodes in one correlated event — the unmaskable
	// case that degrades the job to rollback recovery.
	Shadow bool
	Pair   bool
}

// FaultPlan configures failure injection for a run.
type FaultPlan struct {
	// MTBF enables Poisson node failures with this mean time between
	// failures (the paper's §VI-B experiment uses one minute).
	MTBF time.Duration
	// MaxFailures bounds the number of injected failures (0 = no
	// Poisson bound; scripted faults always fire).
	MaxFailures int
	// Script lists deterministic faults.
	Script []Fault
	// Blast widens every Poisson failure to this many adjacent nodes
	// killed in one correlated event (0 or 1 = single-node kills).
	Blast int
	// Seed makes Poisson injection reproducible.
	Seed int64
}

// Config configures an FMI job.
type Config struct {
	// Ranks is the world size (constant across failures).
	Ranks int
	// ProcsPerNode places this many consecutive ranks per node
	// (paper's Sierra runs use 12).
	ProcsPerNode int
	// SpareNodes reserves nodes for fault tolerance; when exhausted
	// the resource manager provisions more after ProvisionDelay.
	SpareNodes int
	// ProvisionDelay models waiting on the resource manager when the
	// spare pool is dry.
	ProvisionDelay time.Duration
	// CheckpointInterval checkpoints every n-th loop; 0 enables
	// Vaidya auto-tuning from MTBF (which then must be set).
	CheckpointInterval int
	// MTBF is the failure rate assumption used for auto-tuning.
	MTBF time.Duration
	// XORGroupSize is the encoding group size (paper default 16).
	XORGroupSize int
	// Redundancy selects how many parity shards each group member
	// stores (m). 0 or 1 keeps the paper's ring-XOR encoding, which
	// tolerates one lost member per group; m >= 2 switches the group
	// to systematic Reed-Solomon RS(k,m) over GF(2^8), tolerating m
	// simultaneous member losses at a storage overhead of m/(G-m) per
	// checkpoint (G = group size).
	Redundancy int
	// Level2Every enables multilevel C/R (paper §VIII future work):
	// every Level2Every-th checkpoint is additionally flushed to a
	// simulated parallel file system, and recovery falls back to it
	// when a failure exceeds the XOR groups (e.g. two nodes of one
	// group lost at once). 0 disables level 2.
	Level2Every int
	// LogRingBase is the log-ring base k (paper default 2).
	LogRingBase int
	// Recovery selects the recovery protocol. "global" (the default,
	// also selected by "") is the paper's coordinated rollback: every
	// rank restores the last checkpoint after a failure. "local"
	// enables sender-based message logging with localized recovery:
	// survivors keep their state and pause only for the membership
	// fence while respawned ranks re-execute from the checkpoint with
	// their receives replayed from the survivors' logs. "replica" runs
	// every rank as a primary/shadow pair on distinct nodes with all
	// sends mirrored to both copies: a primary loss is masked by
	// promoting the shadow in place — no rollback, no replay — and a
	// fresh shadow is provisioned from a spare in the background. It
	// doubles the node count and requires an explicit
	// CheckpointInterval and ProcsPerNode <= 1.
	Recovery string
	// Transport selects the substrate.
	Transport TransportKind
	// DetectDelay models how long peers take to observe a process
	// death on monitored connections (ibverbs showed ~0.2 s; tests
	// and examples usually shrink it).
	DetectDelay time.Duration
	// PropDelay models observation of an explicit connection close
	// (log-ring propagation hop).
	PropDelay time.Duration
	// Faults optionally injects failures.
	Faults *FaultPlan
	// Timeout aborts a wedged run (0 = none).
	Timeout time.Duration
	// MaxEpochs bounds recovery rounds (safety valve, default 1024).
	MaxEpochs int
	// TraceTo, when non-nil, receives a printed timeline of the run's
	// lifecycle events (failures, epochs, H1/H2/H3 transitions,
	// checkpoints, rollbacks) after completion. The raw events are
	// also returned in Report.Timeline.
	TraceTo io.Writer
	// TraceJSONTo, when non-nil, receives the same timeline as JSON
	// Lines — one event object per line, timestamps relative to run
	// start — for machine consumption (fmirun -trace-json).
	TraceJSONTo io.Writer
	// Collectives overrides collective algorithm selection. The zero
	// value selects automatically by payload size and communicator
	// size; each selection is surfaced in the trace as a coll-algo
	// event.
	Collectives CollectivesConfig
	// Pooling selects the buffer-arena mode for the hot paths (message
	// frames, collective packing, checkpoint capture and parity). The
	// zero value enables pooling; PoolingOff reverts to per-operation
	// allocation, and PoolingDebug arms the leak checker.
	Pooling PoolingMode
	// Elastic permits online grow/shrink reconfiguration: Env.Resize
	// (and the job service's resize endpoint) change the world size
	// between loop iterations without restarting the job. Survivors
	// keep their live state, joiners enter the application at the fence
	// iteration, retiring ranks hand their checkpoint shards and store
	// objects to the remaining members, and the replicated store
	// rebalances to the new membership. When false (the default),
	// resize requests are rejected.
	Elastic bool
}

// CollectivesConfig pins collective algorithms per operation. Empty
// (or "auto") fields keep the built-in policy: binomial trees for
// bcast/reduce, dissemination for barrier, recursive doubling for
// small allreduces and power-of-two allgathers, ring
// reduce-scatter+allgather for large allreduces and non-power-of-two
// allgathers, Bruck for small alltoalls and pairwise for large ones,
// and linear/binomial gather/scatter by communicator size.
//
// Valid names per op: Bcast/Reduce "binomial"; Barrier "binomial",
// "rec-dbl"; Allreduce "tree" (reduce+bcast), "rec-dbl", "ring";
// Allgather "rec-dbl", "ring"; Alltoall "bruck", "pairwise";
// Gather/Scatter "linear", "binomial".
type CollectivesConfig struct {
	Bcast, Reduce, Barrier, Allreduce, Allgather, Alltoall, Gather, Scatter string
	// RingBytes is the allreduce payload size (bytes) at which the
	// automatic policy switches from recursive doubling to the ring
	// (default 64 KiB). BruckBytes is the per-destination alltoall
	// part size below which Bruck is preferred (default 1 KiB).
	RingBytes, BruckBytes int
}

// policy validates the configured names and builds the internal
// selection policy.
func (c CollectivesConfig) policy() (coll.Policy, error) {
	p := coll.Policy{RingBytes: c.RingBytes, BruckBytes: c.BruckBytes}
	var err error
	for _, f := range []struct {
		op   coll.Opcode
		name string
		dst  *coll.Algo
	}{
		{coll.OpBcast, c.Bcast, &p.Bcast},
		{coll.OpReduce, c.Reduce, &p.Reduce},
		{coll.OpBarrier, c.Barrier, &p.Barrier},
		{coll.OpAllreduce, c.Allreduce, &p.Allreduce},
		{coll.OpAllgather, c.Allgather, &p.Allgather},
		{coll.OpAlltoall, c.Alltoall, &p.Alltoall},
		{coll.OpGather, c.Gather, &p.Gather},
		{coll.OpScatter, c.Scatter, &p.Scatter},
	} {
		if *f.dst, err = coll.ParseAlgo(f.op, f.name); err != nil {
			return p, fmt.Errorf("fmi: Config.Collectives: %w", err)
		}
	}
	return p, nil
}

// Report summarises a run.
type Report struct {
	// Stats aggregates checkpoint/restore/recovery measurements.
	Stats Stats
	// Recoveries is the number of recovery epochs performed.
	Recoveries int
	// SparesConsumed counts replacement nodes allocated.
	SparesConsumed int
	// WallTime is the job duration.
	WallTime time.Duration
	// MaxLoopID is the highest loop id any rank reported.
	MaxLoopID int
	// FailuresInjected counts faults actually fired.
	FailuresInjected int
	// Timeline holds the recorded lifecycle events when tracing was
	// enabled via Config.TraceTo.
	Timeline []TraceEvent
}

// Env is a rank's handle to the FMI runtime (the paper's FMI_* calls).
type Env struct {
	p     *core.Proc
	store *Store
}

// Store returns the job-wide replicated in-memory object store. Every
// rank sees the same store; objects survive node failures as long as
// at least one of their copies does (pruning and re-replication happen
// automatically when a holder node dies).
func (e *Env) Store() *Store { return e.store }

// Rank returns the calling process's FMI (virtual) rank.
func (e *Env) Rank() int { return e.p.Rank() }

// Size returns the world size.
func (e *Env) Size() int { return e.p.Size() }

// World returns the world communicator (FMI_COMM_WORLD).
func (e *Env) World() *Comm { return e.p.World() }

// Loop is FMI_Loop: it registers the checkpoint segments, writes an
// in-memory XOR-encoded checkpoint at the configured interval, and on
// failure recovers the job and rolls the segments back, returning the
// loop id of the restored checkpoint. Call it at the top of the
// application's main loop with the same segments every time.
func (e *Env) Loop(segments ...[]byte) int { return e.p.Loop(segments) }

// Finalize leaves the job cleanly (collective).
func (e *Env) Finalize() error { return e.p.Finalize() }

// Epoch returns the current recovery epoch (0 before any failure).
func (e *Env) Epoch() uint32 { return e.p.Epoch() }

// FailureDetected reports whether a failure notification is pending
// (communication calls will fail until the next Loop call).
func (e *Env) FailureDetected() bool { return e.p.FailureDetected() }

// CheckpointInterval returns the interval currently in effect (it may
// have been re-tuned from the MTBF).
func (e *Env) CheckpointInterval() int { return e.p.Interval() }

// Resize requests an online grow or shrink to n ranks (Config.Elastic
// jobs only). It is asynchronous and non-collective: any rank may call
// it, it returns once the request is armed, and the new membership
// commits at an upcoming Loop fence — after which Size() reports n,
// survivors continue without rolling back, joiners enter the
// application at the fence iteration, and retired ranks' state has
// been migrated to the remaining members.
func (e *Env) Resize(n int) error { return e.p.RequestResize(n) }

// ViewVersion returns the version of the membership view currently in
// effect: 0 at launch, incremented by every committed resize. Pair it
// with Size() to detect that a Loop call crossed a grow/shrink fence.
func (e *Env) ViewVersion() uint64 { return e.p.ViewVersion() }

// App is the application body run by every rank.
type App func(env *Env) error

// Run launches the application on a simulated cluster under the FMI
// runtime and blocks until every rank finishes or the job aborts.
func Run(cfg Config, app App) (*Report, error) {
	switch cfg.Recovery {
	case "", "global", "local", "replica":
	default:
		return nil, fmt.Errorf("fmi: unknown Recovery %q (want \"global\", \"local\", or \"replica\")", cfg.Recovery)
	}
	collPolicy, err := cfg.Collectives.policy()
	if err != nil {
		return nil, err
	}
	// One arena serves the whole job: transport frames released by a
	// receiving rank's runtime return to the pool the sending endpoint
	// draws from.
	var pool *bufpool.Arena
	switch cfg.Pooling {
	case PoolingOff:
	case PoolingDebug:
		pool = bufpool.NewDebug()
	default:
		pool = bufpool.New()
	}
	var nw transport.Network
	opts := transport.Options{
		DetectDelay: cfg.DetectDelay,
		PropDelay:   cfg.PropDelay,
		Pool:        pool,
		Endpoints:   cfg.Ranks,
	}
	if opts.DetectDelay == 0 {
		opts.DetectDelay = 200 * time.Millisecond // ibverbs-observed default (§VI-A)
	}
	if opts.PropDelay == 0 {
		opts.PropDelay = 20 * time.Millisecond
	}
	switch cfg.Transport {
	case TCPTransport:
		nw = transport.NewTCPNetwork(opts)
	default:
		nw = transport.NewChanNetwork(opts)
	}

	ppn := cfg.ProcsPerNode
	if ppn <= 0 {
		ppn = 1
	}
	nodes := (cfg.Ranks + ppn - 1) / ppn
	totalNodes := nodes
	if cfg.Recovery == "replica" {
		totalNodes = 2 * nodes // one shadow node per primary node
	}
	clu := cluster.New(totalNodes + cfg.SpareNodes)

	var rec *trace.Recorder
	if cfg.TraceTo != nil || cfg.TraceJSONTo != nil {
		rec = trace.New()
	}
	rcfg := runtime.Config{
		Trace:          rec,
		Ranks:          cfg.Ranks,
		ProcsPerNode:   ppn,
		SpareNodes:     cfg.SpareNodes,
		Interval:       cfg.CheckpointInterval,
		MTBF:           cfg.MTBF,
		GroupSize:      cfg.XORGroupSize,
		RingBase:       cfg.LogRingBase,
		Redundancy:     cfg.Redundancy,
		L2Every:        cfg.Level2Every,
		Network:        nw,
		Cluster:        clu,
		Timeout:        cfg.Timeout,
		MaxEpochs:      cfg.MaxEpochs,
		ProvisionDelay: cfg.ProvisionDelay,
		Recovery:       cfg.Recovery,
		Coll:           collPolicy,
		Pool:           pool,
		Elastic:        cfg.Elastic,
	}

	var inj *cluster.Injector
	var jobRef atomic.Pointer[runtime.Job]
	if cfg.Faults != nil {
		inj = cluster.NewInjector(clu,
			func(rank int) *cluster.Node {
				if j := jobRef.Load(); j != nil {
					return j.NodeOfRank(rank)
				}
				return nil
			},
			func() []*cluster.Node {
				if j := jobRef.Load(); j != nil {
					return j.ActiveNodes()
				}
				return nil
			},
			cfg.Faults.Seed)
		var script []cluster.Fault
		for _, f := range cfg.Faults.Script {
			cf := cluster.Fault{
				After: f.After, AfterLoop: f.AfterLoop, Rank: f.Rank, Node: f.Node, ProcOnly: f.ProcOnly,
				CorrelatedNodes: f.CorrelatedNodes, CorrelatedRanks: f.CorrelatedRanks,
				Shadow: f.Shadow, Pair: f.Pair,
			}
			if f.After > 0 {
				cf.AfterLoop = -1
			}
			script = append(script, cf)
		}
		inj.SetShadowLocator(func(rank int) *cluster.Node {
			if j := jobRef.Load(); j != nil {
				return j.ShadowNodeOfRank(rank)
			}
			return nil
		})
		inj.SetScript(script)
		if cfg.Faults.MTBF > 0 {
			inj.SetPoisson(cfg.Faults.MTBF, cfg.Faults.MaxFailures)
			inj.SetBlast(cfg.Faults.Blast)
		}
		rcfg.OnLoop = inj.OnLoop
	}
	store := replica.NewStore(clu, rec)
	if cfg.Elastic {
		// Elastic jobs shard the store over the membership view: every
		// committed resize re-derives placement, and nodes freed by a
		// shrink evacuate their objects before leaving the job.
		rcfg.OnViewChange = func(v *view.View, freedNodes []int) {
			store.SetView(v)
			if len(freedNodes) > 0 {
				store.Evacuate(freedNodes)
			}
		}
	}
	j, err := runtime.Launch(rcfg, func(p *core.Proc) error {
		return app(&Env{p: p, store: store})
	})
	if err != nil {
		return nil, err
	}
	jobRef.Store(j)
	if cfg.Elastic {
		store.SetView(j.CurrentView())
	}
	if inj != nil {
		inj.Start()
		defer inj.Stop()
	}
	rep, err := j.Wait()
	if pool != nil && cfg.Pooling == PoolingDebug && err == nil {
		err = auditArena(j, pool)
	}
	out := &Report{
		Stats:          rep.Stats,
		Recoveries:     int(rep.Epochs),
		SparesConsumed: rep.SparesConsumed,
		WallTime:       rep.WallTime,
		MaxLoopID:      rep.MaxLoopID,
	}
	if inj != nil {
		out.FailuresInjected = inj.Fired()
	}
	if rec != nil {
		out.Timeline = rec.Events()
		if cfg.TraceTo != nil {
			rec.Dump(cfg.TraceTo)
		}
		if cfg.TraceJSONTo != nil {
			if jerr := rec.WriteJSONL(cfg.TraceJSONTo); jerr != nil && err == nil {
				err = jerr
			}
		}
	}
	return out, err
}

// auditArena is the debug arena's job-end check: once every rank and
// shadow process has returned and the transports have settled, every
// buffer drawn from the arena must be back. A leak names the call site
// that drew each outstanding buffer.
func auditArena(j *runtime.Job, pool *bufpool.Arena) error {
	if !j.AwaitExit(10 * time.Second) {
		return fmt.Errorf("fmi: arena audit: processes still running 10s after the job ended")
	}
	// Endpoint teardown (socket readers and writers, ring poison drains)
	// finishes asynchronously after the processes return.
	for deadline := time.Now().Add(2 * time.Second); pool.Outstanding() != 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := pool.Outstanding(); n != 0 {
		return fmt.Errorf("fmi: arena audit: %d buffer(s) never released: %v", n, pool.Leaks())
	}
	return nil
}
