// Package serve is the fmiserve job service: an HTTP/JSON control
// plane that multiplexes many concurrent FMI jobs onto one shared
// simulated cluster. Tenants submit jobs against a registry of
// built-in apps; each job gets a disjoint machinefile carved from the
// shared compute pool and recovers from failures by leasing spare
// nodes from a shared broker (per-tenant caps, global floor), so one
// tenant's failure storm cannot roll back or starve another tenant's
// jobs. The request path borrows fasthttp's serving idioms — a
// goroutine-reusing worker pool, pooled response buffers from
// internal/bufpool, and a coarse amortized clock — so status polling
// stays allocation-free under load.
package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fmi/internal/bufpool"
	"fmi/internal/cluster"
	"fmi/internal/runtime"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

// Errors surfaced through the HTTP layer.
var (
	ErrBadSpec      = errors.New("serve: invalid job spec")
	ErrQueueFull    = errors.New("serve: tenant queue full")
	ErrNotFound     = errors.New("serve: no such job")
	ErrKillDisabled = errors.New("serve: fault injection disabled")
	ErrClosed       = errors.New("serve: server closed")
	ErrNotElastic   = errors.New("serve: job is not elastic")
	ErrNoCapacity   = errors.New("serve: not enough free compute nodes")
	ErrResize       = errors.New("serve: resize failed")
)

// Config sizes the shared cluster and the service's admission policy.
type Config struct {
	ComputeNodes int // shared compute pool (default 16)
	SpareNodes   int // shared spare pool (default 8)
	// QueueDepth bounds each tenant's pending queue; submissions
	// beyond it are rejected with ErrQueueFull / HTTP 429.
	QueueDepth int // default 16
	// MaxRunningPerTenant bounds a tenant's concurrently running jobs.
	MaxRunningPerTenant int // default 4
	// MaxSparesPerTenant caps one tenant's outstanding spare leases.
	MaxSparesPerTenant int // default 4
	// SpareFloor is the reserve tenants holding leases may not dip
	// into (a tenant with zero leases may, so recovery can always
	// start).
	SpareFloor int // default 2
	// DetectDelay/PropDelay configure each job's simulated network.
	DetectDelay time.Duration // default 2ms
	PropDelay   time.Duration // default 1ms
	// JobTimeout is the default per-job timeout (a JobSpec may
	// override it).
	JobTimeout time.Duration // default 60s
	// AllowKill enables POST /jobs/{id}/kill fault injection.
	AllowKill bool
	// MaxWorkers bounds concurrent HTTP connections (default 256).
	MaxWorkers int
	// ClockRes is the coarse clock resolution (default 5ms).
	ClockRes time.Duration
}

func (c *Config) setDefaults() {
	if c.ComputeNodes <= 0 {
		c.ComputeNodes = 16
	}
	if c.SpareNodes <= 0 {
		c.SpareNodes = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxRunningPerTenant <= 0 {
		c.MaxRunningPerTenant = 4
	}
	if c.MaxSparesPerTenant <= 0 {
		c.MaxSparesPerTenant = 4
	}
	if c.SpareFloor < 0 || c.SpareFloor >= c.SpareNodes {
		c.SpareFloor = min(2, c.SpareNodes-1)
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = 2 * time.Millisecond
	}
	if c.PropDelay <= 0 {
		c.PropDelay = time.Millisecond
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 256
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Job states.
const (
	stateQueued uint8 = iota
	stateRunning
	stateDone
	stateFailed
)

var stateNames = [...]string{"queued", "running", "done", "failed"}

// jobRec is the server-side record of one submitted job.
type jobRec struct {
	id     string
	tenant string
	spec   JobSpec
	rec    *trace.Recorder
	rm     *cluster.ResourceManager
	tn     *tenant

	finished atomic.Bool
	waitCh   chan struct{} // closed when the job reaches done/failed
	leases   atomic.Int32  // lifetime spare leases granted to this job

	mu          sync.Mutex
	state       uint8
	job         *runtime.Job
	held        map[int]*cluster.Node // compute-pool nodes this job currently owns
	rep         *runtime.Report
	err         error
	errStr      string // err.Error() rendered once, for the alloc-free hot path
	submittedNs int64
	startedNs   int64
	doneNs      int64
}

// JobStatus is the externally visible job state (GET /jobs/{id}).
type JobStatus struct {
	ID          string `json:"id"`
	Tenant      string `json:"tenant"`
	App         string `json:"app"`
	State       string `json:"state"`
	Ranks       int    `json:"ranks"`
	ViewVersion uint64 `json:"view_version"`
	Epochs      uint32 `json:"epochs"`
	SparesUsed  int    `json:"spares_used"`
	QueuedMs    int64  `json:"queued_ms"`
	RunningMs   int64  `json:"running_ms"`
	Err         string `json:"error,omitempty"`
}

// tenant is one tenant's admission state: a bounded pending queue, a
// running-jobs semaphore, and counters. Backpressure is per tenant —
// a full queue rejects that tenant's submissions and nobody else's.
type tenant struct {
	name      string
	queue     chan *jobRec
	sem       chan struct{}
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// Server is the fmiserve control plane.
type Server struct {
	cfg    Config
	clu    *cluster.Cluster
	nodes  *nodePool
	broker *broker
	pool   *bufpool.Arena
	clock  *coarseClock
	wp     *workerPool

	startNs int64
	seq     atomic.Int64
	resizes atomic.Int64 // lifetime committed online resizes
	closed  chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup

	lnMu  sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{} // connections being served; Close closes them

	mu        sync.RWMutex
	jobs      map[string]*jobRec
	tenants   map[string]*tenant
	nodeOwner map[int]*jobRec // node id -> job currently entitled to it
}

// New builds a server over a freshly provisioned shared cluster.
func New(cfg Config) *Server {
	cfg.setDefaults()
	clu := cluster.New(cfg.ComputeNodes + cfg.SpareNodes)
	compute := make([]*cluster.Node, 0, cfg.ComputeNodes)
	spares := make([]*cluster.Node, 0, cfg.SpareNodes)
	for i := 0; i < cfg.ComputeNodes; i++ {
		compute = append(compute, clu.Node(i))
	}
	for i := cfg.ComputeNodes; i < cfg.ComputeNodes+cfg.SpareNodes; i++ {
		spares = append(spares, clu.Node(i))
	}
	s := &Server{
		cfg:       cfg,
		clu:       clu,
		nodes:     newNodePool(compute),
		pool:      bufpool.New(),
		clock:     newCoarseClock(cfg.ClockRes),
		startNs:   time.Now().UnixNano(),
		closed:    make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
		jobs:      make(map[string]*jobRec),
		tenants:   make(map[string]*tenant),
		nodeOwner: make(map[int]*jobRec),
	}
	s.broker = newBroker(clu, spares, cfg.SpareFloor, cfg.MaxSparesPerTenant)
	s.broker.onLease = s.registerLease
	s.wp = &workerPool{
		serveConn:    s.serveConn,
		maxWorkers:   cfg.MaxWorkers,
		maxIdleNanos: (10 * time.Second).Nanoseconds(),
		clock:        s.clock,
	}
	// Node failures are the broker's demand signal: route each to the
	// owning job. The cluster invokes callbacks synchronously from
	// Fail, so hop to a goroutine before taking any server lock.
	clu.OnNodeFailure(func(nd *cluster.Node) {
		go s.onNodeFailure(nd)
	})
	s.wg.Add(1)
	go s.sweepLoop()
	return s
}

// sweepLoop periodically reaps idle HTTP workers.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.wp.SweepIdle()
		case <-s.closed:
			return
		}
	}
}

// Close shuts the server down: stop accepting, close the connections
// being served (an idle keep-alive connection would otherwise hold its
// worker until the read deadline), abort running jobs, and wait for
// the job goroutines and the workers to drain.
func (s *Server) Close() {
	if !s.closing.CompareAndSwap(false, true) {
		return
	}
	close(s.closed)
	s.closeListener()
	s.wp.Stop()
	s.wg.Wait()
	s.wp.Wait()
	s.clock.Stop()
}

// Submit validates and enqueues a job, returning its id. A full
// tenant queue rejects with ErrQueueFull (HTTP 429): bounded
// admission is the backpressure contract.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if err := spec.normalize(); err != nil {
		return "", err
	}
	if n := spec.nodesNeeded(); n > s.cfg.ComputeNodes {
		return "", fmt.Errorf("%w: needs %d nodes, cluster has %d", ErrBadSpec, n, s.cfg.ComputeNodes)
	}
	if s.closing.Load() {
		return "", ErrClosed
	}
	tn := s.tenantFor(spec.Tenant)
	jr := &jobRec{
		id:          fmt.Sprintf("j-%d", s.seq.Add(1)),
		tenant:      spec.Tenant,
		spec:        spec,
		tn:          tn,
		waitCh:      make(chan struct{}),
		submittedNs: time.Now().UnixNano(),
	}
	s.mu.Lock()
	s.jobs[jr.id] = jr
	s.mu.Unlock()
	select {
	case tn.queue <- jr:
		tn.submitted.Add(1)
		return jr.id, nil
	default:
		tn.rejected.Add(1)
		s.mu.Lock()
		delete(s.jobs, jr.id)
		s.mu.Unlock()
		return "", fmt.Errorf("%w: tenant %q has %d jobs pending", ErrQueueFull, spec.Tenant, cap(tn.queue))
	}
}

// tenantFor returns (creating on first use) the tenant record and its
// dispatcher goroutine.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn, ok := s.tenants[name]
	if !ok {
		tn = &tenant{
			name:  name,
			queue: make(chan *jobRec, s.cfg.QueueDepth),
			sem:   make(chan struct{}, s.cfg.MaxRunningPerTenant),
		}
		s.tenants[name] = tn
		s.wg.Add(1)
		go s.dispatch(tn)
	}
	return tn
}

// dispatch drains one tenant's queue, holding its running-jobs
// semaphore across each job. Tenants dispatch independently: one
// tenant exhausting its run slots stalls only its own queue.
func (s *Server) dispatch(tn *tenant) {
	defer s.wg.Done()
	for {
		select {
		case jr := <-tn.queue:
			select {
			case tn.sem <- struct{}{}:
			case <-s.closed:
				jr.finish(nil, ErrClosed)
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-tn.sem }()
				s.runJob(jr)
			}()
		case <-s.closed:
			return
		}
	}
}

// runJob owns one job's lifecycle: carve a machinefile from the
// compute pool, launch on the shared cluster with a lease-only
// resource manager, wait, then return every node it held.
func (s *Server) runJob(jr *jobRec) {
	nNodes := jr.spec.nodesNeeded()
	machine, ok := s.nodes.acquire(nNodes, s.closed)
	if !ok {
		jr.finish(nil, ErrClosed)
		return
	}
	// The job's RM never creates capacity: on node loss it parks in
	// Allocate until the broker leases a spare in via AddSpare.
	rm := cluster.NewResourceManager(s.clu, nil)
	rm.Provision = false
	rm.WaitForSpare = true
	rec := trace.New()
	jr.mu.Lock()
	jr.rm = rm
	jr.rec = rec
	jr.held = make(map[int]*cluster.Node, len(machine))
	for _, nd := range machine {
		jr.held[nd.ID] = nd
	}
	jr.mu.Unlock()
	s.mu.Lock()
	for _, nd := range machine {
		s.nodeOwner[nd.ID] = jr
	}
	s.mu.Unlock()

	timeout := s.cfg.JobTimeout
	if jr.spec.TimeoutMs > 0 {
		timeout = time.Duration(jr.spec.TimeoutMs) * time.Millisecond
	}
	job, err := runtime.Launch(runtime.Config{
		Ranks:        jr.spec.Ranks,
		ProcsPerNode: jr.spec.ProcsPerNode,
		Interval:     jr.spec.Interval,
		Redundancy:   jr.spec.Redundancy,
		Recovery:     jr.spec.Recovery,
		Elastic:      jr.spec.Elastic,
		// A shrink frees nodes at the fence: compute-pool nodes return
		// to the shared pool immediately (other tenants can place on
		// them), broker leases stay with the job until it finishes.
		OnNodeRetired: func(nd *cluster.Node) bool { return s.reclaimRetired(jr, nd) },
		Network: transport.NewChanNetwork(transport.Options{
			DetectDelay: s.cfg.DetectDelay,
			PropDelay:   s.cfg.PropDelay,
		}),
		Cluster: s.clu,
		RM:      rm,
		Machine: machine,
		Trace:   rec,
		Timeout: timeout,
		Pool:    s.pool,
	}, registry[jr.spec.App](jr.spec))
	if err != nil {
		s.releaseNodes(jr)
		jr.finish(nil, fmt.Errorf("launch: %w", err))
		return
	}
	jr.setRunning(job)
	select {
	case <-job.Done():
	case <-s.closed:
		job.Abort(ErrClosed)
		<-job.Done()
	}
	rep, werr := job.Wait()
	s.releaseNodes(jr)
	jr.finish(rep, werr)
}

// releaseNodes returns a finished job's compute nodes to the pool and
// its leases to the broker, and clears its node ownership. The held
// set — not the launch machinefile — is what goes back: grows add to
// it and shrinks drain it, so release matches what the job owns now.
func (s *Server) releaseNodes(jr *jobRec) {
	jr.finished.Store(true)
	jr.mu.Lock()
	nodes := make([]*cluster.Node, 0, len(jr.held))
	for _, nd := range jr.held {
		nodes = append(nodes, nd)
	}
	jr.held = nil
	jr.mu.Unlock()
	s.mu.Lock()
	for id, owner := range s.nodeOwner {
		if owner == jr {
			delete(s.nodeOwner, id)
		}
	}
	s.mu.Unlock()
	s.nodes.release(s.clu, nodes)
	s.broker.release(jr)
}

// reclaimRetired is the job's OnNodeRetired hook: a shrink fence freed
// the node. Compute-pool nodes the job holds go straight back to the
// shared pool; anything else (a broker-leased spare hosting a
// recovered rank) stays with the job's RM and is reclaimed by the
// broker when the job finishes.
func (s *Server) reclaimRetired(jr *jobRec, nd *cluster.Node) bool {
	jr.mu.Lock()
	_, mine := jr.held[nd.ID]
	if mine {
		delete(jr.held, nd.ID)
	}
	jr.mu.Unlock()
	if !mine {
		return false
	}
	s.mu.Lock()
	delete(s.nodeOwner, nd.ID)
	s.mu.Unlock()
	s.nodes.release(s.clu, []*cluster.Node{nd})
	return true
}

// ResizeResult is the outcome of a committed online resize
// (POST /jobs/{id}/resize).
type ResizeResult struct {
	ID          string `json:"id"`
	Ranks       int    `json:"ranks"`
	ViewVersion uint64 `json:"view_version"`
	ResizeMs    int64  `json:"resize_ms"`
}

// Resize grows or shrinks a running elastic job to ranks without
// restarting it, blocking until the new membership view commits. A
// grow carves the extra machinefile slots from the shared compute
// pool first (failing fast with ErrNoCapacity rather than parking the
// request); a shrink returns the freed slots through reclaimRetired.
func (s *Server) Resize(jobID string, ranks int) (ResizeResult, error) {
	s.mu.RLock()
	jr := s.jobs[jobID]
	s.mu.RUnlock()
	if jr == nil {
		return ResizeResult{}, ErrNotFound
	}
	if ranks <= 0 {
		return ResizeResult{}, fmt.Errorf("%w: ranks must be positive", ErrBadSpec)
	}
	if !jr.spec.Elastic {
		return ResizeResult{}, fmt.Errorf("%w: job %s", ErrNotElastic, jobID)
	}
	jr.mu.Lock()
	job := jr.job
	running := jr.state == stateRunning
	jr.mu.Unlock()
	if !running || job == nil {
		return ResizeResult{}, fmt.Errorf("%w: job %s is not running", ErrBadSpec, jobID)
	}
	// The job's RM never creates capacity, so a grow must be funded up
	// front: one compute node per new machinefile slot, injected as
	// spares for the runtime's fence provisioning to consume.
	ppn := jr.spec.ProcsPerNode
	cur := job.CurrentView()
	if newSlots := (ranks-1)/ppn - (cur.Ranks-1)/ppn; newSlots > 0 {
		extra, ok := s.nodes.tryAcquire(newSlots)
		if !ok {
			return ResizeResult{}, fmt.Errorf("%w: grow to %d ranks needs %d more", ErrNoCapacity, ranks, newSlots)
		}
		jr.mu.Lock()
		if jr.held == nil { // job finished while we were acquiring
			jr.mu.Unlock()
			s.nodes.release(s.clu, extra)
			return ResizeResult{}, fmt.Errorf("%w: job %s is not running", ErrBadSpec, jobID)
		}
		for _, nd := range extra {
			jr.held[nd.ID] = nd
		}
		jr.mu.Unlock()
		s.mu.Lock()
		for _, nd := range extra {
			s.nodeOwner[nd.ID] = jr
		}
		s.mu.Unlock()
		for _, nd := range extra {
			jr.rm.AddSpare(nd)
		}
	}
	start := time.Now()
	if err := job.Resize(ranks); err != nil {
		// A failed grow leaves its funded nodes in the job's RM spare
		// pool; they are still in held and return at job end.
		return ResizeResult{}, fmt.Errorf("%w: %v", ErrResize, err)
	}
	v := job.CurrentView()
	s.resizes.Add(1)
	return ResizeResult{
		ID:          jobID,
		Ranks:       v.Ranks,
		ViewVersion: v.Version,
		ResizeMs:    time.Since(start).Milliseconds(),
	}, nil
}

// onNodeFailure routes a node failure to the broker as spare demand
// from the owning job.
func (s *Server) onNodeFailure(nd *cluster.Node) {
	s.mu.RLock()
	jr := s.nodeOwner[nd.ID]
	s.mu.RUnlock()
	if jr == nil || jr.finished.Load() {
		return
	}
	s.broker.demand(jr)
}

// registerLease records that a spare node now belongs to the job (the
// broker's onLease hook, called before the node is injected).
func (s *Server) registerLease(jr *jobRec, nd *cluster.Node) {
	s.mu.Lock()
	s.nodeOwner[nd.ID] = jr
	s.mu.Unlock()
	jr.leases.Add(1)
}

// KillRank fails the node currently hosting the rank (fault
// injection; gated by Config.AllowKill at the HTTP layer). It returns
// the failed node's id.
func (s *Server) KillRank(jobID string, rank int) (int, error) {
	s.mu.RLock()
	jr := s.jobs[jobID]
	s.mu.RUnlock()
	if jr == nil {
		return 0, ErrNotFound
	}
	jr.mu.Lock()
	job := jr.job
	running := jr.state == stateRunning
	jr.mu.Unlock()
	if !running || job == nil {
		return 0, fmt.Errorf("%w: job %s is not running", ErrBadSpec, jobID)
	}
	nd := job.NodeOfRank(rank)
	if nd == nil {
		return 0, fmt.Errorf("%w: job %s has no rank %d", ErrBadSpec, jobID, rank)
	}
	nd.Fail()
	return nd.ID, nil
}

// lookup returns the job record for an id held in a byte slice. The
// map index on string(b) compiles to a no-copy lookup, keeping the
// status hot path allocation-free.
func (s *Server) lookup(id []byte) *jobRec {
	s.mu.RLock()
	jr := s.jobs[string(id)]
	s.mu.RUnlock()
	return jr
}

// Status returns the externally visible state of a job.
func (s *Server) Status(jobID string) (JobStatus, error) {
	s.mu.RLock()
	jr := s.jobs[jobID]
	s.mu.RUnlock()
	if jr == nil {
		return JobStatus{}, ErrNotFound
	}
	return jr.status(time.Now().UnixNano()), nil
}

// Await blocks until the job finishes (or the timeout fires) and
// returns its final status.
func (s *Server) Await(jobID string, timeout time.Duration) (JobStatus, error) {
	s.mu.RLock()
	jr := s.jobs[jobID]
	s.mu.RUnlock()
	if jr == nil {
		return JobStatus{}, ErrNotFound
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-jr.waitCh:
		return jr.status(time.Now().UnixNano()), nil
	case <-t.C:
		return jr.status(time.Now().UnixNano()), fmt.Errorf("serve: job %s still %s after %v", jobID, stateNames[jr.stateNow()], timeout)
	}
}

// Trace returns the recorder of a job (nil while queued).
func (s *Server) Trace(jobID string) (*trace.Recorder, error) {
	s.mu.RLock()
	jr := s.jobs[jobID]
	s.mu.RUnlock()
	if jr == nil {
		return nil, ErrNotFound
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.rec, nil
}

func (jr *jobRec) setRunning(job *runtime.Job) {
	jr.mu.Lock()
	jr.job = job
	jr.state = stateRunning
	jr.startedNs = time.Now().UnixNano()
	jr.mu.Unlock()
}

func (jr *jobRec) finish(rep *runtime.Report, err error) {
	jr.finished.Store(true)
	jr.mu.Lock()
	if jr.state == stateDone || jr.state == stateFailed {
		jr.mu.Unlock()
		return
	}
	jr.rep = rep
	jr.err = err
	if err != nil {
		jr.errStr = err.Error()
		jr.state = stateFailed
	} else {
		jr.state = stateDone
	}
	jr.doneNs = time.Now().UnixNano()
	jr.mu.Unlock()
	close(jr.waitCh)
	if err != nil {
		jr.tn.failed.Add(1)
	} else {
		jr.tn.completed.Add(1)
	}
}

func (jr *jobRec) stateNow() uint8 {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.state
}

// status snapshots the record; nowNs supplies "now" for in-flight
// durations (callers on the hot path pass the coarse clock).
func (jr *jobRec) status(nowNs int64) JobStatus {
	jr.mu.Lock()
	st := JobStatus{
		ID:         jr.id,
		Tenant:     jr.tenant,
		App:        jr.spec.App,
		State:      stateNames[jr.state],
		Ranks:      jr.spec.Ranks,
		SparesUsed: int(jr.leases.Load()),
	}
	if jr.job != nil {
		st.Epochs = jr.job.Epoch()
		// A launched job's membership view — not the submitted spec —
		// is the truth about its world size: resizes move it.
		if v := jr.job.CurrentView(); v != nil {
			st.Ranks = v.Ranks
			st.ViewVersion = v.Version
		}
	}
	st.QueuedMs, st.RunningMs = jr.phaseMs(nowNs)
	if jr.err != nil {
		st.Err = jr.err.Error()
	}
	jr.mu.Unlock()
	return st
}

// phaseMs computes time spent queued and running, in ms. Caller holds
// jr.mu.
func (jr *jobRec) phaseMs(nowNs int64) (queued, running int64) {
	switch {
	case jr.startedNs == 0:
		queued = nowNs - jr.submittedNs
	case jr.doneNs == 0:
		queued = jr.startedNs - jr.submittedNs
		running = nowNs - jr.startedNs
	default:
		queued = jr.startedNs - jr.submittedNs
		running = jr.doneNs - jr.startedNs
	}
	return queued / 1e6, running / 1e6
}

// TenantStats is one tenant's slice of /stats.
type TenantStats struct {
	Submitted    int64 `json:"submitted"`
	Rejected     int64 `json:"rejected"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Queued       int   `json:"queued"`
	Running      int   `json:"running"`
	SparesLeased int   `json:"spares_leased"`
}

// ServerStats is the GET /stats document.
type ServerStats struct {
	UptimeMs     int64                  `json:"uptime_ms"`
	Jobs         map[string]int         `json:"jobs"`
	ComputeFree  int                    `json:"compute_free"`
	ComputeTotal int                    `json:"compute_total"`
	ResizesTotal int64                  `json:"resizes_total"`
	Spares       brokerStats            `json:"spares"`
	Tenants      map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the whole service.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		UptimeMs:     (time.Now().UnixNano() - s.startNs) / 1e6,
		Jobs:         map[string]int{"queued": 0, "running": 0, "done": 0, "failed": 0},
		ComputeFree:  s.nodes.freeCount(),
		ComputeTotal: s.nodes.total,
		ResizesTotal: s.resizes.Load(),
		Spares:       s.broker.stats(),
		Tenants:      make(map[string]TenantStats),
	}
	s.mu.RLock()
	jobs := make([]*jobRec, 0, len(s.jobs))
	for _, jr := range s.jobs {
		jobs = append(jobs, jr)
	}
	tenants := make(map[string]*tenant, len(s.tenants))
	for name, tn := range s.tenants {
		tenants[name] = tn
	}
	s.mu.RUnlock()
	for _, jr := range jobs {
		st.Jobs[stateNames[jr.stateNow()]]++
	}
	for name, tn := range tenants {
		st.Tenants[name] = TenantStats{
			Submitted:    tn.submitted.Load(),
			Rejected:     tn.rejected.Load(),
			Completed:    tn.completed.Load(),
			Failed:       tn.failed.Load(),
			Queued:       len(tn.queue),
			Running:      len(tn.sem),
			SparesLeased: s.broker.tenantLeases(name),
		}
	}
	return st
}
