package core

import (
	"fmt"
	"time"

	"fmi/internal/bootstrap"
	"fmi/internal/bufpool"
	"fmi/internal/ckpt"
	"fmi/internal/msglog"
	"fmi/internal/overlay"
	"fmi/internal/trace"
	"fmi/internal/transport"
	"fmi/internal/view"
)

// Proc is one FMI rank's runtime. It lives in the rank's goroutine;
// its methods are called only from that goroutine (the failure watcher
// touches only the epoch generation's channels).
type Proc struct {
	cfg Config

	rank, n int
	state   State
	epoch   uint32

	// Versioned membership (elastic jobs). view is the immutable view
	// this rank currently operates under; viewCtl is the control plane's
	// resize interface (nil for fixed-size jobs); viewCkpt forces a
	// checkpoint at the first Loop iteration after a view change so the
	// shards re-encode over the new groups (shard migration).
	view     *view.View
	viewCtl  ViewControl
	viewCkpt bool

	// Per-epoch generation: fresh endpoint, matcher, overlay, table,
	// and failure channel. Replaced wholesale by recovery (paper H1:
	// "update endpoints to transparently recover communicators").
	gen *generation

	// Checkpointing: double-buffered in-memory entries (paper §V-A).
	staged    *entryExt // fully encoded, awaiting global agreement
	committed *entryExt // last globally agreed checkpoint
	prior     *entryExt // replica mode: the one committed before (negotiateRestore)
	pool      *bufpool.Arena
	coder     ckpt.Coder
	groups    [][]int
	gidx      []int
	loopID    int // id the next Loop call returns
	lastCkpt  int // loop id of the last checkpoint taken locally
	interval  int // current checkpoint interval (iterations)
	l1Count   int // level-1 checkpoints committed (level-2 cadence)

	// Restore negotiated for the current epoch: the loop id every rank
	// rolls back to (-1 none). The snapshot is applied to the user
	// segments at the next Loop call (a local memcpy).
	pendingID      int
	pendingApplied bool

	// Vaidya auto-tuning inputs.
	lastLoopAt   time.Time
	iterEWMA     time.Duration
	ckptEWMA     time.Duration
	autoInterval bool
	ranLoop      bool // first Loop call seen (switches collectives to the data plane)

	// Communicator bookkeeping.
	world    *Comm
	nextCtx  uint32
	commSeq  int // count of communicator-creating calls (cache keys)
	finalize bool

	// Localized (message-logging) recovery state, cfg.Local only.
	log       *msglog.Log // sender-based volatile message log
	seqActive bool        // sequencing armed (between negotiate and teardown)
	logEra    uint32      // bumped to the epoch of every level-2 fallback
	// reexecPending marks a fresh replacement that must re-execute the
	// restore checkpoint's exchange after applying the snapshot, so the
	// dead incarnation's post-capture messages are regenerated with
	// their original sequence numbers. reexec is true while that
	// re-execution runs.
	reexecPending bool
	reexec        bool
	// Matcher state carried across an epoch fence on a survivor: the
	// receive watermarks plus accepted-but-unconsumed data-plane
	// messages, harvested from the old generation's matcher and seeded
	// into the new one so nothing is lost or double-delivered.
	carrySeen  []uint64
	carryQueue []transport.Msg

	// Replication-based recovery state, cfg.Replica only (replica.go).
	repSeq        []uint64 // per-destination mirrored send sequence numbers
	flipAck       []uint64 // per-destination shadow incarnation this copy has fenced
	flipGen       uint64   // registry ShadowGen at the last ack sweep
	syncPending   bool     // re-provisioned shadow awaiting its primary's snapshot
	repInc        uint64   // this process's shadow-registration incarnation
	repRegistered bool     // repInc is valid: this process has registered as a shadow
	fenceClean    bool     // epoch bump came from a committed resize fence, no app progress since
	ckptSeeded    bool     // counters adopted from a snapshot: skip the first-Loop checkpoint
}

// generation bundles everything that is rebuilt on recovery.
type generation struct {
	epoch      uint32
	ep         transport.Endpoint
	m          *transport.Matcher
	table      bootstrap.Table
	ring       *overlay.Ring
	failureCh  chan struct{} // closed on failure notification
	cancelCh   chan struct{} // closed on failure notification OR kill
	stop       chan struct{} // stops the watcher
	notifiedAt time.Time
	tornDown   bool // teardown ran (guards double harvest/stat counting)
	replica    bool // built by buildReplicaGeneration (no endpoint table)
}

func (g *generation) failed() bool {
	select {
	case <-g.failureCh:
		return true
	default:
		return false
	}
}

// Init bootstraps the rank: H1 endpoint exchange, H2 log-ring build,
// plus the restore negotiation of the epoch it joins. It corresponds
// to FMI_Init.
func Init(cfg Config) (*Proc, error) {
	cfg.fillDefaults()
	start := time.Now()
	p := &Proc{
		cfg:       cfg,
		rank:      cfg.Rank,
		n:         cfg.N,
		epoch:     cfg.Epoch,
		state:     StateBootstrapping,
		interval:  cfg.Interval,
		nextCtx:   ctxWorld + 1,
		pendingID: -1,
		lastCkpt:  -1,
	}
	if p.interval == 0 {
		p.autoInterval = true
		p.interval = 1 // until measurements exist
	}
	p.pool = cfg.Pool
	p.coder = ckpt.NewCoder(cfg.Redundancy, 0)
	// Membership: prefer the control plane's live view (elastic jobs),
	// then a pinned view from the config, then the legacy static layout.
	if vc, ok := cfg.Ctl.(ViewControl); ok {
		p.viewCtl = vc
	}
	v := cfg.View
	if p.viewCtl != nil {
		if cur := p.viewCtl.CurrentView(); cur != nil {
			v = cur
		}
	}
	if v != nil {
		p.view = v
		p.n = v.Ranks
		p.groups, p.gidx = v.Groups, v.GIdx
	} else {
		p.groups, p.gidx = ckpt.Groups(cfg.N, cfg.ProcsPerNode, cfg.GroupSize)
	}
	// A rank joining mid-run through a grow fence starts at the cut
	// loop, in step with the survivors.
	p.loopID = cfg.StartLoop
	p.world = newWorldComm(p)
	if cfg.Local {
		p.log = msglog.NewPooled(p.n, cfg.Pool)
	}
	if cfg.Replica != nil {
		p.repSeq = make([]uint64, p.n)
		p.flipAck = make([]uint64, p.n)
		// A replacement shadow must pull its primary's live state
		// before it can track the mirrored streams.
		p.syncPending = cfg.Shadow && cfg.IsReplacement
	}

	// A replacement may have been spawned for an epoch that has since
	// advanced; join whatever is current.
	epoch, err := cfg.Ctl.AwaitEpoch(p.epoch, p.killCh())
	if err != nil {
		p.releaseLog()
		return nil, err
	}
	p.epoch = epoch
	if err := p.rebuildUntilStable(); err != nil {
		p.releaseLog()
		return nil, err
	}
	p.state = StateRunning
	p.lastLoopAt = time.Now()
	cfg.Stats.AddInit(time.Since(start))
	return p, nil
}

// rebuildUntilStable repeats the H1→H2→negotiate cycle until a round
// completes without being interrupted by another failure.
func (p *Proc) rebuildUntilStable() error {
	for {
		err := p.buildGeneration()
		if err == nil {
			return nil
		}
		if isUnrecoverable(err) {
			return err
		}
		// A concurrent failure aborted the round; wait for the next
		// epoch and retry (Fig 5: Notified transition back to H1).
		next, werr := p.cfg.Ctl.AwaitEpoch(p.epoch+1, p.killCh())
		if werr != nil {
			return werr
		}
		p.epoch = next
	}
}

func isUnrecoverable(err error) bool {
	for e := err; e != nil; {
		if e == ErrUnrecoverable {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// killCh returns the process kill channel.
func (p *Proc) killCh() <-chan struct{} { return p.cfg.KillCh }

// checkAlive panics with the kill unwind if the process has been
// killed (a real process would already be gone).
func (p *Proc) checkAlive() {
	select {
	case <-p.cfg.KillCh:
		p.die()
	default:
	}
}

// die unwinds the goroutine of a killed process. The process's memory
// would vanish with it, so what it holds in the job's arena goes back
// first.
func (p *Proc) die() {
	p.releaseLog()
	panic(procKilledPanic{})
}

// releaseLog returns the message log's chunks to the arena at the
// rank's teardown; a trim still in flight finds the log empty.
func (p *Proc) releaseLog() {
	if p.log != nil {
		p.log.Reset()
	}
}

// adoptView installs the control plane's current membership view if it
// moved past the one this rank operates under. Runs at the top of every
// generation build — after the old matcher's state was harvested, before
// anything sized by the world is rebuilt — so the whole generation
// (endpoint table, dedup vectors, checkpoint groups, mirrored-stream
// counters) derives from one consistent view. Sets viewCkpt so the next
// Loop iteration re-encodes the checkpoint shards over the new groups.
func (p *Proc) adoptView() {
	if p.viewCtl == nil {
		return
	}
	v := p.viewCtl.CurrentView()
	if v == nil || (p.view != nil && v.Version == p.view.Version) {
		return
	}
	var was uint64
	if p.view != nil {
		was = p.view.Version
	}
	p.view = v
	p.n = v.Ranks
	p.groups, p.gidx = v.Groups, v.GIdx
	p.viewCkpt = true
	// World communicator tracks the live membership; derived (Dup/Split)
	// communicators keep their frozen member lists.
	members := make([]int, p.n)
	for i := range members {
		members[i] = i
	}
	p.world.members = members
	if p.log != nil {
		p.log.Resize(p.n)
	}
	// Carried matcher state: pad watermarks for joiners, drop state for
	// retired ranks (nothing of theirs can arrive again).
	if p.carrySeen != nil {
		cs := make([]uint64, p.n)
		copy(cs, p.carrySeen)
		p.carrySeen = cs
	}
	if len(p.carryQueue) > 0 {
		keep := p.carryQueue[:0]
		for _, m := range p.carryQueue {
			if int(m.Src) < p.n {
				keep = append(keep, m)
			}
		}
		p.carryQueue = keep
	}
	if p.repSeq != nil {
		rs := make([]uint64, p.n)
		copy(rs, p.repSeq)
		p.repSeq = rs
		fa := make([]uint64, p.n)
		copy(fa, p.flipAck)
		p.flipAck = fa
	}
	p.cfg.Trace.AddView(trace.KindViewChange, p.rank, p.epoch, v.Version,
		"adopted %s (was v%d)", v, was)
}

// viewVersion returns the version of the installed view (0 when the job
// is not view-managed).
func (p *Proc) viewVersion() uint64 {
	if p.view == nil {
		return 0
	}
	return p.view.Version
}

// buildGeneration performs H1 (endpoint exchange), H2 (log-ring), and
// the epoch's restore negotiation. On interruption it tears down and
// returns an error; the caller advances the epoch and retries.
func (p *Proc) buildGeneration() error {
	if p.cfg.Replica != nil {
		if p.cfg.Replica.Active() {
			return p.buildReplicaGeneration()
		}
		// The job degraded to plain rollback recovery (pair loss). A
		// shadow that never promoted has no seat in the rebuilt world:
		// park until the runtime reaps it. Promoted shadows ARE their
		// rank now and rebuild normally with the survivors.
		if p.cfg.Shadow && !p.promotedSelf() {
			<-p.cfg.KillCh
			p.die()
		}
	}
	p.checkAlive()
	p.seqActive = false // no data-plane sequencing during the fence
	p.teardownGen(p.gen)
	p.gen = nil
	p.adoptView()
	// Note: a fully staged checkpoint (encode finished, commit wave
	// interrupted) is deliberately kept — the restore negotiation
	// rolls it forward when every survivor holds it.
	p.state = StateBootstrapping
	p.cfg.Trace.Add(trace.KindState, p.rank, p.epoch, "H1 bootstrapping")

	g := &generation{
		epoch:     p.epoch,
		failureCh: make(chan struct{}),
		cancelCh:  make(chan struct{}),
		stop:      make(chan struct{}),
	}
	ep, err := newEndpoint(&p.cfg)
	if err != nil {
		return fmt.Errorf("fmi: endpoint: %w", err)
	}
	g.ep = ep
	g.m = transport.NewMatcher(ep)
	g.m.AdvanceEpoch(p.epoch)
	g.m.AdvanceView(p.viewVersion())
	if p.cfg.Local {
		g.m.EnableDedup(p.n)
		// Re-seed state carried over from the previous generation: the
		// receive watermarks keep suppressing replayed duplicates, and
		// accepted-but-unconsumed messages stay deliverable. (The
		// teardown harvest repopulates the carry if this round fails.)
		if p.carrySeen != nil {
			g.m.SeedSeen(p.carrySeen)
		}
		if len(p.carryQueue) > 0 {
			g.m.Inject(p.carryQueue)
		}
		p.carrySeen, p.carryQueue = nil, nil
	}

	// Cancel H1/H2 waits when the process is killed OR the job epoch
	// advances past this round (a further failure made it stale).
	cancel, stopCancel := mergeCancel(p.cfg.KillCh, p.cfg.Ctl.EpochNotify(p.epoch))
	defer stopCancel()

	table, _, err := bootstrap.TreeExchange(bootstrap.Proc{
		Rank: p.rank, N: p.n, Addr: ep.Addr(), EP: ep, M: g.m,
		Coord: p.cfg.Ctl.Coordinator(), Epoch: p.epoch,
		Key:    fmt.Sprintf("h1/%d", p.epoch),
		Cancel: cancel,
	})
	if err != nil {
		p.teardownGen(g)
		return p.classify(err)
	}
	g.table = table

	// H2: log-ring.
	p.state = StateConnecting
	p.cfg.Trace.Add(trace.KindState, p.rank, p.epoch, "H2 connecting")
	ring, err := overlay.Build(ep, p.rank, table, p.cfg.RingBase)
	if err != nil {
		p.teardownGen(g)
		return p.classify(err)
	}
	g.ring = ring

	// Everyone must finish H2 before anything else flows, or an early
	// sender could race the ring construction.
	if err := p.cfg.Ctl.Coordinator().Barrier(fmt.Sprintf("h2/%d", p.epoch), p.rank, p.n, cancel); err != nil {
		p.teardownGen(g)
		return p.classify(err)
	}

	// Arm the failure watcher: ring notification or control-plane
	// epoch bump, whichever lands first. The merged cancel channel
	// additionally wakes on process kill so every blocked receive
	// unwinds promptly.
	ctlCh := p.cfg.Ctl.EpochNotify(p.epoch)
	kill := p.cfg.KillCh
	go func(g *generation) {
		defer close(g.cancelCh)
		select {
		case <-g.ring.Notify():
		case <-ctlCh:
		case <-kill:
			return
		case <-g.stop:
			return
		}
		g.notifiedAt = time.Now()
		p.cfg.Trace.Add(trace.KindNotified, p.rank, g.epoch, "failure notification received")
		close(g.failureCh)
	}(g)

	p.gen = g

	// Restore negotiation: agree on the rollback point and rebuild
	// lost checkpoints within each XOR group. The resulting snapshot
	// is applied to the user segments at the next Loop call.
	if err := p.negotiateRestore(); err != nil {
		p.teardownGen(g)
		p.gen = nil
		return err
	}
	if p.cfg.Local {
		// Sequencing arms only once the generation is fully negotiated;
		// fence-internal traffic stays unsequenced (Seq 0).
		p.seqActive = true
	}
	return nil
}

// mergeCancel returns a channel closed when either input fires; call
// stop to release the watcher once the guarded phase completes.
func mergeCancel(a, b <-chan struct{}) (<-chan struct{}, func()) {
	out := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		select {
		case <-a:
		case <-b:
		case <-stop:
			return
		}
		close(out)
	}()
	return out, func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
	}
}

func (p *Proc) teardownGen(g *generation) {
	if g == nil || g.tornDown {
		return
	}
	g.tornDown = true
	if g.m != nil {
		d, dr, dup := g.m.Stats()
		p.cfg.Stats.AddMatcher(p.rank, d, dr, dup, g.m.LaneStats())
		if p.cfg.Local {
			// Harvest receive-side state for the next generation.
			seen, queued := g.m.HarvestState()
			if len(seen) > 0 {
				p.carrySeen = seen
				p.carryQueue = queued
			}
		} else if g.replica {
			// Mirrored sequence numbers run on across a view-change
			// fence: the next replica generation resumes each source's
			// ordered stream where this one stopped.
			p.carrySeen = g.m.SeenVector()
		}
	}
	if g.stop != nil {
		select {
		case <-g.stop:
		default:
			close(g.stop)
		}
	}
	if g.ring != nil {
		g.ring.Shutdown()
	}
	if g.m != nil {
		g.m.Close()
	}
	if g.ep != nil {
		g.ep.Close()
	}
}

// classify maps low-level errors to runtime errors, checking for kill.
func (p *Proc) classify(err error) error {
	select {
	case <-p.cfg.KillCh:
		p.die()
	default:
	}
	return err
}

// Rank returns the process's FMI (virtual) rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size under the currently installed membership
// view. For elastic jobs it changes when a Loop call crosses a
// grow/shrink fence, so callers must re-read it after every Loop rather
// than caching it across iterations.
func (p *Proc) Size() int { return p.n }

// ViewVersion returns the version of the membership view this rank
// currently operates under (0 for fixed-size jobs).
func (p *Proc) ViewVersion() uint64 { return p.viewVersion() }

// RequestResize asks the control plane to reconfigure the job to n
// total ranks. It is asynchronous: validation happens here, but the
// new membership commits only at an upcoming Loop fence that every
// rank reaches — the caller itself participates, so blocking here
// would deadlock the fence. Fails when the job's control plane does
// not support elastic membership.
func (p *Proc) RequestResize(n int) error {
	if p.viewCtl == nil {
		return fmt.Errorf("fmi: this job's control plane does not support online resize")
	}
	return p.viewCtl.RequestResize(n)
}

// Epoch returns the current recovery epoch.
func (p *Proc) Epoch() uint32 { return p.epoch }

// State returns the current process state (Fig 5).
func (p *Proc) State() State { return p.state }

// World returns the world communicator.
func (p *Proc) World() *Comm { return p.world }

// Interval returns the checkpoint interval currently in effect.
func (p *Proc) Interval() int { return p.interval }

// FailureDetected reports whether a failure has been notified in the
// current epoch (communication calls will fail until Loop recovers).
func (p *Proc) FailureDetected() bool {
	return p.gen != nil && p.gen.failed()
}

// failureCh returns the current generation's merged cancel channel.
func (p *Proc) failureCh() <-chan struct{} {
	return p.gen.cancelCh
}

// addrOf resolves a world rank to its current endpoint address.
func (p *Proc) addrOf(rank int) (transport.Addr, error) {
	if rank < 0 || rank >= p.n {
		return transport.NilAddr, fmt.Errorf("%w: %d", ErrInvalidRank, rank)
	}
	return p.gen.table[rank], nil
}

// checkComm guards the start of every communication call. In local
// (message-logging) mode survivors do NOT fail fast on a notification:
// their operations ride through the epoch fence transparently (sends
// to dead peers vanish at the transport and are repaired by replay;
// receives re-post on the rebuilt generation inside recvRaw), so the
// application never observes the failure and never re-executes work.
func (p *Proc) checkComm() error {
	p.checkAlive()
	if p.finalize {
		return ErrFinalized
	}
	if p.cfg.Local && p.seqActive {
		return nil
	}
	if p.gen.failed() {
		return ErrFailureDetected
	}
	return nil
}

// Finalize leaves the job cleanly: quiesce failure detection, final
// coordinator barrier, teardown. Collective.
func (p *Proc) Finalize() error {
	p.checkAlive()
	if p.finalize {
		return ErrFinalized
	}
	// A finalizing rank can no longer join a resize fence; tell the
	// control plane so an armed fence fails fast instead of waiting.
	if p.viewCtl != nil {
		p.viewCtl.MarkFinalizing(p.rank)
	}
	if p.replicaOn() {
		return p.finalizeReplica()
	}
	if p.cfg.Local {
		return p.finalizeLocal()
	}
	// Stop reacting to peers' teardown before anyone starts closing.
	p.gen.ring.Quiesce()
	if p.gen.stop != nil {
		select {
		case <-p.gen.stop:
		default:
			close(p.gen.stop)
		}
	}
	err := p.cfg.Ctl.Coordinator().Barrier(fmt.Sprintf("finalize/%d", p.epoch), p.rank, p.n, p.cfg.KillCh)
	p.finalize = true
	p.state = StateFinalized
	p.cfg.Trace.Add(trace.KindFinalize, p.rank, p.epoch, "finalized")
	p.teardownGen(p.gen)
	return err
}

// finalizeLocal is Finalize for localized recovery. Ranks may sit at
// different epochs (survivors never re-enter H1 unless notified), so
// the exit barrier uses an epoch-independent key, and a failure while
// waiting is ridden through like any other operation: recover the
// generation, re-join the barrier. Failure detection stays armed until
// the barrier passes — a rank that dies *during* finalize is respawned,
// re-executes from its checkpoint, and joins the same barrier.
func (p *Proc) finalizeLocal() error {
	for {
		cancel, stopCancel := mergeCancel(p.cfg.KillCh, p.gen.cancelCh)
		err := p.cfg.Ctl.Coordinator().Barrier("finalize-local", p.rank, p.n, cancel)
		stopCancel()
		if err == nil {
			break
		}
		p.checkAlive()
		p.recover()
	}
	p.gen.ring.Quiesce()
	if p.gen.stop != nil {
		select {
		case <-p.gen.stop:
		default:
			close(p.gen.stop)
		}
	}
	p.finalize = true
	p.seqActive = false
	p.state = StateFinalized
	if p.log != nil {
		p.cfg.Stats.AddLog(p.log.Stats())
	}
	p.releaseLog()
	p.cfg.Trace.Add(trace.KindFinalize, p.rank, p.epoch, "finalized")
	p.teardownGen(p.gen)
	return nil
}
