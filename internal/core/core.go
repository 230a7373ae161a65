// Package core implements the FMI runtime proper (paper §III–§V): the
// per-rank process state machine (Bootstrapping H1 → Connecting H2 →
// Running H3), virtual FMI ranks resolved through an epoch-versioned
// endpoint table, MPI-style point-to-point and collective operations
// that fail fast once a failure is notified, and FMI_Loop — the single
// call that checkpoints, detects failures, recovers communicators, and
// rolls the application back transparently.
package core

import (
	"errors"
	"sync"
	"time"

	"fmi/internal/bootstrap"
	"fmi/internal/bufpool"
	"fmi/internal/coll"
	"fmi/internal/replica"
	"fmi/internal/trace"
	"fmi/internal/transport"
	"fmi/internal/view"
)

// Errors surfaced to applications.
var (
	// ErrFailureDetected is returned by every communication call
	// between the moment a failure is notified and the completion of
	// recovery inside Loop (paper §III-B: "all FMI communication calls
	// return an error until recovery is performed in FMI_Loop").
	ErrFailureDetected = errors.New("fmi: failure detected; call Loop to recover")
	// ErrKilled unwinds a killed process; applications never see it.
	ErrKilled = errors.New("fmi: process killed")
	// ErrUnrecoverable reports a failure outside what level-1
	// checkpointing can repair (e.g. two losses in one XOR group).
	ErrUnrecoverable = errors.New("fmi: unrecoverable failure")
	// ErrFinalized is returned by operations after Finalize.
	ErrFinalized = errors.New("fmi: already finalized")
	// ErrInvalidRank reports an out-of-range peer.
	ErrInvalidRank = errors.New("fmi: invalid rank")
)

// State is the process state of Fig 5.
type State int

const (
	// StateBootstrapping (H1): launching/relaunching, exchanging
	// endpoints.
	StateBootstrapping State = iota
	// StateConnecting (H2): building the log-ring overlay.
	StateConnecting
	// StateRunning (H3): executing application code.
	StateRunning
	// StateFinalized: the process has left the job.
	StateFinalized
)

func (s State) String() string {
	switch s {
	case StateBootstrapping:
		return "H1-bootstrapping"
	case StateConnecting:
		return "H2-connecting"
	case StateRunning:
		return "H3-running"
	case StateFinalized:
		return "finalized"
	}
	return "unknown"
}

// Reserved tag space. User tags must be >= 0; the runtime owns the
// negative space.
const (
	tagBcast       int32 = -1
	tagReduce      int32 = -2
	tagGather      int32 = -3
	tagScatter     int32 = -4
	tagAlltoall    int32 = -5
	tagBarrierUp   int32 = -6
	tagBarrierDn   int32 = -7 // retired: barrier runs as one schedule on tagBarrierUp
	tagAllreduce   int32 = -8
	tagAllgather   int32 = -9
	tagCkptRing    int32 = -20 // checkpoint encode ring traffic
	tagCkptSize    int32 = -21 // group size exchange
	tagCkptMeta    int32 = -22 // runtime meta to restarted ranks
	tagCkptRebuild int32 = -23 // recovery rebuild traffic (decode + gather)
	tagCkptAgree   int32 = -24 // checkpoint completion tree
	// tagShadowSync carries a primary's full state snapshot to a
	// re-provisioned shadow (replica recovery); sent directly, never
	// mirrored, with Seq 0 so it bypasses the dedup watermarks.
	tagShadowSync int32 = -25
)

// ctxWorld is the context id of the world communicator; runtime
// -internal traffic shares it with reserved tags.
const ctxWorld uint32 = 1

// AnySource matches any sending rank in Recv.
const AnySource = int(transport.AnySource)

// L2Store is the level-2 (parallel file system) checkpoint target;
// the scr package's Manager implements it.
type L2Store interface {
	WriteL2(rank, id int, data []byte) error
	ReadL2(rank, id int) ([]byte, error)
	CommitL2(id int)
	LatestL2() int
}

// Control is the process's link to the fmirun process manager. The
// runtime package implements it; tests provide lightweight fakes.
type Control interface {
	// Coordinator returns the job's rendezvous service (endpoint
	// exchange, recovery rounds, communicator-creation caching).
	Coordinator() *bootstrap.Coordinator
	// AwaitEpoch blocks until the job epoch is >= min and returns the
	// current epoch.
	AwaitEpoch(min uint32, cancel <-chan struct{}) (uint32, error)
	// EpochNotify returns a channel closed when the job epoch first
	// exceeds e — the control-plane fallback failure notification.
	EpochNotify(e uint32) <-chan struct{}
	// ReportLoop informs the manager (and the fault injector) that
	// rank completed the given loop iteration.
	ReportLoop(rank, loopID int)
	// Abort reports an unrecoverable condition; the manager tears the
	// job down.
	Abort(err error)
}

// ResizeOutcome is JoinResize's verdict for one rank at one Loop
// fence check.
type ResizeOutcome struct {
	// Proceed means the fence is still collecting acks (phase 1): the
	// rank recorded its position and should run this iteration
	// normally, checking again at the next Loop top.
	Proceed bool
	// View is the newly installed membership view once the fence
	// committed (phase 2 release). Nil while Proceed is true.
	View *view.View
	// Retired means this rank is not part of the new view; the proc
	// must stop executing application code and wait to be torn down.
	Retired bool
}

// ViewControl is the optional elastic-membership extension of Control.
// The runtime's Job implements it; the proc discovers it by type
// assertion so fixed-size fakes and baselines need not change.
type ViewControl interface {
	// CurrentView returns the membership view currently in force.
	CurrentView() *view.View
	// ResizePending returns the ticket of the armed resize fence, or 0
	// when no resize is pending.
	ResizePending() uint64
	// JoinResize is called by each rank (and each synced shadow, with
	// observer=true) at the top of Loop while a resize is pending. In
	// phase 1 it records (rank, loopID) and returns Proceed. Once every
	// live participant has acked, the coordinator fixes the cut loop;
	// a rank arriving with loopID == cut blocks here (phase 2) until
	// all participants are parked, the fence commits, and the new view
	// is released to it. cancel aborts the wait (the rank was killed).
	JoinResize(ticket uint64, rank, loopID int, observer bool, cancel <-chan struct{}) (ResizeOutcome, error)
	// RequestResize arms a resize toward n total ranks and returns
	// without waiting for the fence to commit.
	RequestResize(n int) error
	// MarkFinalizing records that rank reached Finalize; an armed,
	// uncommitted resize fence is aborted (a finalizing rank can no
	// longer park at a future loop).
	MarkFinalizing(rank int)
}

// Config configures one rank's runtime.
type Config struct {
	Rank, N       int
	ProcsPerNode  int
	Epoch         uint32 // epoch current at spawn time
	IsReplacement bool   // spawned to replace a failed rank
	// View is the membership view current at spawn time; nil falls
	// back to a fixed world of N ranks (legacy fakes and baselines).
	// When Ctl implements ViewControl the proc re-reads the live view
	// at every recovery fence.
	View *view.View
	// StartLoop is the loop id this proc begins at — non-zero for
	// ranks joining an already-running job through a grow fence.
	StartLoop int
	Interval  int // checkpoint every Interval loops; 0 = auto-tune from MTBF
	MTBF      time.Duration
	GroupSize int // checkpoint group size (paper default 16)
	RingBase  int // log-ring base k (paper default 2)
	// Redundancy is the number of parity shards each group member
	// stores (m): 1 selects the paper's ring-XOR encoding (one loss
	// per group), >= 2 selects Reed-Solomon RS(k,m) tolerating m
	// simultaneous losses per group. 0 defaults to 1.
	Redundancy int
	// L2Every flushes every L2Every-th checkpoint to the parallel
	// file system (multilevel C/R, paper §VIII future work); 0
	// disables level 2. L2 must be set when L2Every > 0.
	L2Every int
	L2      L2Store
	// Local selects localized (message-logging) recovery: survivors
	// keep their state across a failure and serve logged-message replay
	// to respawned ranks, instead of the paper's global rollback.
	Local bool
	// Replica, when non-nil, selects replication-based recovery: the
	// registry routes every send to both endpoints of the destination
	// pair, and the runtime flips it on promotion. Once deactivated
	// (an unmaskable pair loss) the proc falls back to the plain
	// rollback machinery.
	Replica *replica.Registry
	// Shadow marks this proc as the shadow copy of its rank. Shadows
	// execute the application in lockstep with their primary but never
	// report loop progress (until promoted) and never write level-2
	// checkpoints.
	Shadow bool
	// Node is the id of the node hosting this rank. When Network
	// implements transport.NodePlacer the proc's endpoints are created
	// with this placement (metadata only: every pair uses the same
	// link). The zero value (node 0) is correct for single-node
	// in-process runs; the runtime scheduler sets real node ids. Set to
	// -1 to opt out of placement entirely.
	Node    int
	Network transport.Network
	Ctl     Control
	KillCh  <-chan struct{}
	Stats   *Stats
	// Trace, when non-nil, records the rank's lifecycle events.
	Trace *trace.Recorder
	// Coll selects collective algorithms; the zero value picks
	// automatically by payload and communicator size.
	Coll coll.Policy
	// Pool is the shared buffer arena for the hot paths (checkpoint
	// capture buffers, parity shards, group-exchange frames). It must be
	// the same arena the transport uses so buffers released here return
	// to the pool frames were drawn from. nil disables pooling — every
	// Get falls back to make and every Put is a no-op.
	Pool *bufpool.Arena
}

func (c *Config) fillDefaults() {
	if c.GroupSize == 0 {
		c.GroupSize = 16
	}
	if c.RingBase == 0 {
		c.RingBase = 2
	}
	if c.Redundancy == 0 {
		c.Redundancy = 1
	}
	if c.ProcsPerNode == 0 {
		c.ProcsPerNode = 1
	}
	if c.Interval == 0 && c.MTBF == 0 {
		c.Interval = 1
	}
}

// Stats collects job-wide runtime statistics; all methods are safe for
// concurrent use. One instance is shared by all ranks.
type Stats struct {
	mu              sync.Mutex
	Checkpoints     int
	CheckpointTime  time.Duration
	CheckpointBytes int64
	Restores        int
	RestoreTime     time.Duration
	Recoveries      int
	RecoveryTime    time.Duration
	NotifyTime      time.Duration
	notifySamples   int
	InitTime        time.Duration
	initSamples     int
	LostIterations  int
	L2Checkpoints   int
	L2Restores      int
	L2RestoreTime   time.Duration
	matcher         map[int]MatcherCounters
	LogEntries      int
	LogBytes        int64
	Replays         int
	ReplayedMsgs    int
}

// MatcherCounters are one rank's accumulated matcher statistics:
// delivered messages, stale-epoch discards (paper §IV-D), duplicates
// suppressed by the sequenced protocols' receive watermarks, and
// frames still held above a sequence gap when a generation was torn
// down (transport.LaneCounters.Held; a working recovery leaves none).
// PerSource breaks the same counters down by sending rank (indexed by
// source rank, from the matcher's per-source lanes); messages from
// out-of-range sources are counted in the totals only.
type MatcherCounters struct {
	Delivered     uint64
	Dropped       uint64
	DupSuppressed uint64
	Held          uint64
	PerSource     []transport.LaneCounters
}

// AddMatcher accumulates one generation's matcher counters for rank,
// including the per-source lane breakdown.
func (s *Stats) AddMatcher(rank int, delivered, dropped, dupSuppressed uint64, lanes []transport.LaneCounters) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.matcher == nil {
		s.matcher = make(map[int]MatcherCounters)
	}
	c := s.matcher[rank]
	c.Delivered += delivered
	c.Dropped += dropped
	c.DupSuppressed += dupSuppressed
	if len(lanes) > len(c.PerSource) {
		grown := make([]transport.LaneCounters, len(lanes))
		copy(grown, c.PerSource)
		c.PerSource = grown
	}
	for src, lc := range lanes {
		c.PerSource[src].Delivered += lc.Delivered
		c.PerSource[src].Dropped += lc.Dropped
		c.PerSource[src].DupSuppressed += lc.DupSuppressed
		c.PerSource[src].Held += lc.Held
		c.Held += lc.Held
	}
	s.matcher[rank] = c
	s.mu.Unlock()
}

// AddLog records a rank's message-log retention at shutdown.
func (s *Stats) AddLog(entries, bytes int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.LogEntries += entries
	s.LogBytes += int64(bytes)
	s.mu.Unlock()
}

// AddReplay records one sender's replay round (msgs re-sent from its log).
func (s *Stats) AddReplay(msgs int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Replays++
	s.ReplayedMsgs += msgs
	s.mu.Unlock()
}

// AddCheckpoint records one rank's checkpoint.
func (s *Stats) AddCheckpoint(d time.Duration, bytes int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Checkpoints++
	s.CheckpointTime += d
	s.CheckpointBytes += int64(bytes)
	s.mu.Unlock()
}

// AddRestore records one rank's restore.
func (s *Stats) AddRestore(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Restores++
	s.RestoreTime += d
	s.mu.Unlock()
}

// AddRecovery records one completed recovery round (rank 0 reports).
func (s *Stats) AddRecovery(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Recoveries++
	s.RecoveryTime += d
	s.mu.Unlock()
}

// AddNotify records a failure-notification latency sample.
func (s *Stats) AddNotify(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.NotifyTime += d
	s.notifySamples++
	s.mu.Unlock()
}

// AddInit records one rank's Init duration.
func (s *Stats) AddInit(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.InitTime += d
	s.initSamples++
	s.mu.Unlock()
}

// AddL2Checkpoint records a level-2 flush.
func (s *Stats) AddL2Checkpoint() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.L2Checkpoints++
	s.mu.Unlock()
}

// AddL2Restore records a level-2 fallback restore.
func (s *Stats) AddL2Restore(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.L2Restores++
	s.L2RestoreTime += d
	s.mu.Unlock()
}

// AddLostIterations counts work discarded by a rollback.
func (s *Stats) AddLostIterations(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.LostIterations += n
	s.mu.Unlock()
}

// MeanNotify returns the average failure-notification latency.
func (s *Stats) MeanNotify() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.notifySamples == 0 {
		return 0
	}
	return s.NotifyTime / time.Duration(s.notifySamples)
}

// MeanInit returns the average per-rank Init duration.
func (s *Stats) MeanInit() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.initSamples == 0 {
		return 0
	}
	return s.InitTime / time.Duration(s.initSamples)
}

// StatsSnapshot is a plain copy of the collector's counters, safe to
// copy and embed in reports.
type StatsSnapshot struct {
	Checkpoints     int
	CheckpointTime  time.Duration
	CheckpointBytes int64
	Restores        int
	RestoreTime     time.Duration
	Recoveries      int
	RecoveryTime    time.Duration
	NotifyTime      time.Duration
	InitTime        time.Duration
	LostIterations  int
	MeanNotify      time.Duration
	MeanInit        time.Duration
	L2Checkpoints   int
	L2Restores      int
	L2RestoreTime   time.Duration
	// Matcher maps rank -> accumulated matcher counters across all of
	// the rank's generations.
	Matcher      map[int]MatcherCounters
	LogEntries   int
	LogBytes     int64
	Replays      int
	ReplayedMsgs int
}

// Snapshot returns a copy of the statistics.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StatsSnapshot{
		Checkpoints:     s.Checkpoints,
		CheckpointTime:  s.CheckpointTime,
		CheckpointBytes: s.CheckpointBytes,
		Restores:        s.Restores,
		RestoreTime:     s.RestoreTime,
		Recoveries:      s.Recoveries,
		RecoveryTime:    s.RecoveryTime,
		NotifyTime:      s.NotifyTime,
		InitTime:        s.InitTime,
		LostIterations:  s.LostIterations,
		L2Checkpoints:   s.L2Checkpoints,
		L2Restores:      s.L2Restores,
		L2RestoreTime:   s.L2RestoreTime,
		LogEntries:      s.LogEntries,
		LogBytes:        s.LogBytes,
		Replays:         s.Replays,
		ReplayedMsgs:    s.ReplayedMsgs,
	}
	if len(s.matcher) > 0 {
		snap.Matcher = make(map[int]MatcherCounters, len(s.matcher))
		for r, c := range s.matcher {
			// Deep-copy the lane slice: the live one keeps accumulating.
			c.PerSource = append([]transport.LaneCounters(nil), c.PerSource...)
			snap.Matcher[r] = c
		}
	}
	if s.notifySamples > 0 {
		snap.MeanNotify = s.NotifyTime / time.Duration(s.notifySamples)
	}
	if s.initSamples > 0 {
		snap.MeanInit = s.InitTime / time.Duration(s.initSamples)
	}
	return snap
}

// newEndpoint creates one transport endpoint for the configured rank,
// passing node placement through when the network supports it.
func newEndpoint(cfg *Config) (transport.Endpoint, error) {
	if np, ok := cfg.Network.(transport.NodePlacer); ok && cfg.Node >= 0 {
		return np.NewEndpointOnNode(cfg.Node, cfg.KillCh)
	}
	return cfg.Network.NewEndpoint(cfg.KillCh)
}

// procKilledPanic unwinds the goroutine of a killed process; the
// runtime's spawn wrapper recovers it.
type procKilledPanic struct{}

// KilledPanic is the value paniced when a process is killed; exported
// for the runtime package's recover.
func KilledPanic() any { return procKilledPanic{} }

// IsKilledPanic reports whether a recovered panic value is the
// process-kill unwind.
func IsKilledPanic(v any) bool {
	_, ok := v.(procKilledPanic)
	return ok
}
