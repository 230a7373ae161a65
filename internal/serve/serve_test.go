package serve

import (
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"fmi/internal/cluster"
	"fmi/internal/leakcheck"
)

// testConfig is a small, fast shared cluster for tests.
func testConfig() Config {
	return Config{
		ComputeNodes:        8,
		SpareNodes:          4,
		QueueDepth:          8,
		MaxRunningPerTenant: 2,
		MaxSparesPerTenant:  3,
		SpareFloor:          1,
		JobTimeout:          30 * time.Second,
		AllowKill:           true,
	}
}

// newServer starts a server for the test and, when the test ends,
// closes it and fails the test if the server or its jobs left a
// goroutine behind.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	base := runtime.NumGoroutine()
	s := New(cfg)
	t.Cleanup(func() {
		s.Close()
		if err := leakcheck.Settle(base); err != nil {
			t.Errorf("after the server closed: %v", err)
		}
	})
	return s
}

func submitOK(t *testing.T, s *Server, spec JobSpec) string {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", spec, err)
	}
	return id
}

func awaitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	st, err := s.Await(id, 30*time.Second)
	if err != nil {
		t.Fatalf("Await(%s): %v", id, err)
	}
	return st
}

// TestSingleJob runs one job through the service end to end.
func TestSingleJob(t *testing.T) {
	s := newServer(t, testConfig())
	id := submitOK(t, s, JobSpec{Tenant: "t0", App: "allreduce", Ranks: 4, Iters: 5})
	st := awaitDone(t, s, id)
	if st.State != "done" {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Err)
	}
	if st.Epochs != 0 || st.SparesUsed != 0 {
		t.Fatalf("failure-free job: epochs=%d spares=%d, want 0/0", st.Epochs, st.SparesUsed)
	}
	// All nodes returned.
	if free := s.nodes.freeCount(); free != 8 {
		t.Fatalf("compute free = %d, want 8", free)
	}
}

// TestTenantIsolation is the acceptance scenario: two tenants run
// concurrent jobs, a failure storm hits only tenant A, and tenant B's
// jobs complete with zero recovery activity — no cross-tenant
// rollback, no stalled queue — while A's jobs all recover and finish
// correctly on leased spares.
func TestTenantIsolation(t *testing.T) {
	s := newServer(t, testConfig())

	specA := JobSpec{Tenant: "acme", App: "allreduce", Ranks: 4, Iters: 8, Interval: 2, StepMs: 10}
	specB := JobSpec{Tenant: "bloom", App: "allreduce", Ranks: 4, Iters: 8, Interval: 2, StepMs: 10}
	aIDs := []string{submitOK(t, s, specA), submitOK(t, s, specA)}
	bIDs := []string{submitOK(t, s, specB), submitOK(t, s, specB)}

	// Failure storm against tenant A only: kill a node under each of
	// its jobs once the job is running.
	for _, id := range aIDs {
		id := id
		go func() {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				st, err := s.Status(id)
				if err == nil && st.State == "running" {
					if _, err := s.KillRank(id, 1); err == nil {
						return
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	for _, id := range bIDs {
		st := awaitDone(t, s, id)
		if st.State != "done" {
			t.Fatalf("tenant B job %s: state=%s err=%q", id, st.State, st.Err)
		}
		if st.Epochs != 0 {
			t.Errorf("tenant B job %s rolled back: epochs=%d, want 0", id, st.Epochs)
		}
		if st.SparesUsed != 0 {
			t.Errorf("tenant B job %s leased spares: %d, want 0", id, st.SparesUsed)
		}
	}
	recovered := 0
	for _, id := range aIDs {
		st := awaitDone(t, s, id)
		if st.State != "done" {
			t.Fatalf("tenant A job %s: state=%s err=%q", id, st.State, st.Err)
		}
		if st.Epochs > 0 {
			recovered++
			if st.SparesUsed == 0 {
				t.Errorf("tenant A job %s recovered (epochs=%d) without a lease", id, st.Epochs)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no tenant A job recorded a recovery; the storm missed")
	}

	// Every node accounted for: compute pool full, spare pool full.
	if free := s.nodes.freeCount(); free != 8 {
		t.Errorf("compute free = %d, want 8", free)
	}
	if bst := s.broker.stats(); bst.Free != 4 || bst.Leased != 0 {
		t.Errorf("spare pool free=%d leased=%d, want 4/0", bst.Free, bst.Leased)
	}
	stats := s.Stats()
	if stats.Tenants["bloom"].Failed != 0 || stats.Tenants["acme"].Failed != 0 {
		t.Errorf("unexpected failures: %+v", stats.Tenants)
	}
}

// TestQueueOverflow pins the backpressure contract: beyond QueueDepth
// pending jobs a tenant's submissions fail with ErrQueueFull, and
// other tenants are unaffected.
func TestQueueOverflow(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.MaxRunningPerTenant = 1
	s := newServer(t, cfg)

	// Long-ish jobs so the queue stays occupied.
	spec := JobSpec{Tenant: "glut", App: "allreduce", Ranks: 4, Iters: 10, StepMs: 10}
	var ids []string
	full := 0
	for i := 0; i < 8; i++ {
		id, err := s.Submit(spec)
		switch {
		case err == nil:
			ids = append(ids, id)
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("Submit: %v", err)
		}
	}
	if full == 0 {
		t.Fatal("no submission hit ErrQueueFull")
	}
	// A different tenant still gets in.
	other := submitOK(t, s, JobSpec{Tenant: "calm", App: "noop", Ranks: 2, Iters: 3})
	if st := awaitDone(t, s, other); st.State != "done" {
		t.Fatalf("other tenant blocked by backpressure: %+v", st)
	}
	for _, id := range ids {
		if st := awaitDone(t, s, id); st.State != "done" {
			t.Fatalf("admitted job %s: %+v", id, st)
		}
	}
	if got := s.Stats().Tenants["glut"].Rejected; got != int64(full) {
		t.Errorf("rejected counter = %d, want %d", got, full)
	}
}

// TestBrokerTenantCap pins the per-tenant lease cap: demands beyond
// the cap queue instead of granting.
func TestBrokerTenantCap(t *testing.T) {
	clu := cluster.New(4)
	spares := []*cluster.Node{clu.Node(0), clu.Node(1), clu.Node(2)}
	b := newBroker(clu, spares, 0, 1)
	jr := fakeJob(clu, "solo")
	b.demand(jr)
	b.demand(jr)
	if got := b.tenantLeases("solo"); got != 1 {
		t.Fatalf("leases = %d, want 1 (cap)", got)
	}
	if st := b.stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1", st.Pending)
	}
	if jr.rm.SpareCount() != 1 {
		t.Fatalf("rm spares = %d, want 1", jr.rm.SpareCount())
	}
	// Release frees the cap slot, but the pending demand belongs to a
	// finished job and must be dropped, not granted.
	jr.finished.Store(true)
	b.release(jr)
	if st := b.stats(); st.Pending != 0 || st.Free != 3 {
		t.Fatalf("after release: pending=%d free=%d, want 0/3", st.Pending, st.Free)
	}
}

// TestBrokerFloor pins the global floor: a tenant already holding
// leases may not drain the reserve, but a fresh tenant may.
func TestBrokerFloor(t *testing.T) {
	clu := cluster.New(4)
	spares := []*cluster.Node{clu.Node(0), clu.Node(1)}
	b := newBroker(clu, spares, 1, 5)
	jrA := fakeJob(clu, "a")
	jrB := fakeJob(clu, "b")
	b.demand(jrA) // pool 2 -> 1 (== floor)
	if got := b.tenantLeases("a"); got != 1 {
		t.Fatalf("a leases = %d, want 1", got)
	}
	b.demand(jrA) // a holds a lease, pool at floor: must queue
	if st := b.stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1 (floor protected)", st.Pending)
	}
	b.demand(jrB) // b holds nothing: may take the reserve
	if got := b.tenantLeases("b"); got != 1 {
		t.Fatalf("b leases = %d, want 1", got)
	}
	// Releasing b only refills the pool back to the floor, so a's
	// queued demand must stay queued: the reserve is still protected.
	b.release(jrB)
	if st := b.stats(); st.Pending != 1 || st.Free != 1 {
		t.Fatalf("after b release: pending=%d free=%d, want 1/1", st.Pending, st.Free)
	}
	// Releasing a's lease zeroes its count; its queued demand may now
	// take the reserve and drains.
	b.release(jrA)
	if got := b.tenantLeases("a"); got != 1 {
		t.Fatalf("a leases after drain = %d, want 1", got)
	}
	if st := b.stats(); st.Pending != 0 {
		t.Fatalf("pending = %d, want 0", st.Pending)
	}
}

// fakeJob builds the minimal jobRec the broker needs.
func fakeJob(clu *cluster.Cluster, tenant string) *jobRec {
	rm := cluster.NewResourceManager(clu, nil)
	rm.Provision = false
	rm.WaitForSpare = true
	return &jobRec{id: "j-test", tenant: tenant, rm: rm, waitCh: make(chan struct{})}
}

// TestStatusHotPathAllocs pins the acceptance criterion: rendering a
// status response — id lookup, JSON body, header block — allocates at
// most one buffer per request, and that buffer comes from the arena.
func TestStatusHotPathAllocs(t *testing.T) {
	s := newServer(t, testConfig())
	id := submitOK(t, s, JobSpec{Tenant: "hot", App: "noop", Ranks: 2, Iters: 3})
	awaitDone(t, s, id)
	idB := []byte(id)
	// Warm the arena's size class.
	for i := 0; i < 8; i++ {
		s.pool.Put(s.pool.Get(4096))
	}
	allocs := testing.AllocsPerRun(200, func() {
		jr := s.lookup(idB)
		if jr == nil {
			t.Fatal("lookup failed")
		}
		buf := s.pool.Get(4096)
		body := jr.appendStatus(buf[512:512], s.clock.NowNanos())
		hdr := appendHeader(buf[:0], status200, ctJSON, len(body), true)
		n := copy(buf[len(hdr):cap(buf)], body)
		_ = buf[:len(hdr)+n]
		s.pool.Put(buf)
	})
	if allocs > 1 {
		t.Fatalf("status hot path allocates %.1f/request, budget is 1", allocs)
	}
}

// TestStatusRendersValidJSON cross-checks the hand-rolled renderer
// against the structured Status for a failed job (the error-string
// branch included).
func TestStatusRendersValidJSON(t *testing.T) {
	cfg := testConfig()
	cfg.JobTimeout = 200 * time.Millisecond
	s := newServer(t, cfg)
	// A job that cannot finish in time: iterations far beyond the
	// timeout budget ensure a timeout abort and an error status.
	id := submitOK(t, s, JobSpec{Tenant: "sad", App: "allreduce", Ranks: 4, Iters: 100000, TimeoutMs: 200})
	st, _ := s.Await(id, 30*time.Second)
	if st.State != "failed" || st.Err == "" {
		t.Fatalf("want failed state with error, got %+v", st)
	}
	jr := s.lookup([]byte(id))
	body := jr.appendStatus(nil, s.clock.NowNanos())
	var decoded JobStatus
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("hot-path JSON invalid: %v\n%s", err, body)
	}
	if decoded.State != "failed" || decoded.Err == "" || decoded.ID != id {
		t.Fatalf("decoded = %+v", decoded)
	}
}

// TestKillDisabled pins the AllowKill gate at the service layer.
func TestKillDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.AllowKill = false
	s := newServer(t, cfg)
	id := submitOK(t, s, JobSpec{Tenant: "t", App: "noop", Ranks: 2, Iters: 3})
	awaitDone(t, s, id)
	// The HTTP layer gates on AllowKill; exercised in http_test.go. At
	// the Go API layer killing a finished job must refuse cleanly too.
	if _, err := s.KillRank(id, 0); err == nil {
		t.Fatal("KillRank on finished job succeeded")
	}
}

// awaitRunning polls until the job reports running.
func awaitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State == "running" {
			return
		}
		if st.State == "done" || st.State == "failed" {
			t.Fatalf("job %s finished before it was observed running: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never observed running", id)
}

// TestElasticResize grows and then shrinks a running elastic job
// through the service API, checking the membership view advances, the
// job completes, and every compute node is accounted for afterwards.
func TestElasticResize(t *testing.T) {
	s := newServer(t, testConfig())
	id := submitOK(t, s, JobSpec{Tenant: "el", App: "noop", Ranks: 2, Iters: 60, StepMs: 10, Elastic: true})
	awaitRunning(t, s, id)

	grown, err := s.Resize(id, 4)
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if grown.Ranks != 4 || grown.ViewVersion != 2 {
		t.Fatalf("grow result = %+v, want ranks 4 view 2", grown)
	}
	if st, _ := s.Status(id); st.Ranks != 4 || st.ViewVersion != 2 {
		t.Fatalf("status after grow = %+v, want live ranks 4 view 2", st)
	}

	shrunk, err := s.Resize(id, 2)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if shrunk.Ranks != 2 || shrunk.ViewVersion != 3 {
		t.Fatalf("shrink result = %+v, want ranks 2 view 3", shrunk)
	}
	// The grow's extra node came back through the shrink fence: only
	// the original machinefile slot is still out.
	if free := s.nodes.freeCount(); free != 7 {
		t.Fatalf("compute free after shrink = %d, want 7", free)
	}

	st := awaitDone(t, s, id)
	if st.State != "done" {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Err)
	}
	if free := s.nodes.freeCount(); free != 8 {
		t.Fatalf("compute free after completion = %d, want 8", free)
	}
	if got := s.Stats().ResizesTotal; got != 2 {
		t.Fatalf("resizes_total = %d, want 2", got)
	}
}

// TestResizeRejections pins the resize error surface: unknown job,
// non-elastic job, bad target, and insufficient compute capacity.
func TestResizeRejections(t *testing.T) {
	s := newServer(t, testConfig())
	if _, err := s.Resize("j-999", 4); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job: %v, want ErrNotFound", err)
	}
	rigid := submitOK(t, s, JobSpec{Tenant: "r", App: "noop", Ranks: 2, Iters: 40, StepMs: 10})
	awaitRunning(t, s, rigid)
	if _, err := s.Resize(rigid, 4); !errors.Is(err, ErrNotElastic) {
		t.Errorf("non-elastic: %v, want ErrNotElastic", err)
	}
	el := submitOK(t, s, JobSpec{Tenant: "r", App: "noop", Ranks: 2, Iters: 40, StepMs: 10, Elastic: true})
	awaitRunning(t, s, el)
	if _, err := s.Resize(el, 0); !errors.Is(err, ErrBadSpec) {
		t.Errorf("zero target: %v, want ErrBadSpec", err)
	}
	// An 8-node pool cannot fund a grow to 100 ranks.
	if _, err := s.Resize(el, 100); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("oversized grow: %v, want ErrNoCapacity", err)
	}
	for _, id := range []string{rigid, el} {
		if st := awaitDone(t, s, id); st.State != "done" {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
}

// TestBadSpecs pins validation errors.
func TestBadSpecs(t *testing.T) {
	s := newServer(t, testConfig())
	cases := []JobSpec{
		{Tenant: "", App: "noop", Ranks: 2},
		{Tenant: "t", App: "nope", Ranks: 2},
		{Tenant: "t", App: "noop", Ranks: 0},
		{Tenant: "t", App: "noop", Ranks: 1000},        // larger than cluster
		{Tenant: "bad tenant!", App: "noop", Ranks: 2}, // charset
		{Tenant: strings.Repeat("x", 65), App: "noop", Ranks: 2},
		{Tenant: "t", App: "noop", Ranks: 2, Recovery: "psychic"},
	}
	for _, spec := range cases {
		if _, err := s.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v) err = %v, want ErrBadSpec", spec, err)
		}
	}
}
