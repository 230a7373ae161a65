// Package replica implements the third recovery protocol on the
// paper's frontier: replication-based recovery in the style of
// FTHP-MPI (PAPERS.md). Every rank runs as a primary/shadow pair on
// distinct nodes; sends are mirrored to both endpoints of the
// destination pair and deduplicated by the transport matcher's
// arrival watermarks, so the shadow tracks the primary's message
// stream in real time. When the primary's node dies the runtime flips
// the pair's routing entry — the shadow is promoted in place, with no
// epoch rollback and no replay exchange — and re-provisions a fresh
// shadow from a spare in the background.
//
// The package also hosts the ReStore-style in-memory data store
// (store.go): replicated application data that survives the same node
// failures the protocol masks.
//
// replica deliberately sits below internal/core in the import graph
// (core holds a *Registry in its Config), so nothing here may import
// core or runtime.
package replica

import (
	"errors"
	"sync"

	"fmi/internal/transport"
)

// ErrInactive is returned by Ready when the registry is deactivated
// (pair loss degraded the job to rollback recovery) before every pair
// registered.
var ErrInactive = errors.New("replica: registry deactivated")

// ErrCancelled is returned by Ready when the caller's cancel channel
// fires first.
var ErrCancelled = errors.New("replica: wait cancelled")

// Registry is the shared routing table of a replicated job: for each
// rank, the transport addresses of its primary and shadow endpoints.
// Procs resolve every send through it, the runtime mutates it on
// promotion/re-provisioning, and Deactivate flips the whole job back
// to plain (non-mirrored) routing after an unmaskable pair loss.
type Registry struct {
	mu      sync.Mutex
	n       int
	active  bool
	prim    []transport.Addr
	shad    []transport.Addr
	hasPrim []bool
	hasShad []bool
	// expectShad marks ranks whose shadow is expected to register:
	// Ready only waits for expected shadows, so a rank legitimately
	// running unprotected (shadow dropped, promotion, replacement still
	// provisioning) cannot deadlock a post-fence world rebuild.
	expectShad []bool
	synced     []bool // shadow state matches the primary's (promotable)
	promoted   []bool // rank's current primary is a promoted shadow
	// promotedInc is the incarnation of the shadow that was promoted
	// (valid while promoted is set). Seat-level promoted cannot tell the
	// acting primary apart from a replacement shadow provisioned on the
	// same rank afterwards; PromotedSelf keys the answer by incarnation.
	promotedInc []uint64
	syncReq     []bool // shadow asked its primary for a state snapshot
	changed     chan struct{}

	// Flip-fence bookkeeping for mid-run shadow registrations. A
	// replacement shadow joins the mirrored streams mid-flight: each
	// sender flips from single- to double-endpoint routing at an
	// arbitrary point in its sequence stream, and anything it sent
	// before the flip exists only as an in-flight copy toward the
	// acting primary. The primary must not harvest the sync snapshot
	// until all of that pre-flip traffic has landed — otherwise the
	// replacement's stream has a sequence gap covered by neither the
	// snapshot nor its own endpoint. incGen/shadowInc number the
	// registrations; fenceInc/fenceSeq record, per (rank, sender), the
	// last pre-flip sequence number each sender acknowledged.
	incGen    uint64
	shadowInc []uint64
	fenceInc  [][]uint64
	fenceSeq  [][]uint64

	// ckptDone[side][rank] is the ordinal of the last level-1
	// checkpoint the copy of rank on that side committed (0: acting
	// primary, 1: shadow); AwaitPartnerCheckpoint paces the pair on it.
	ckptDone [2][]int
}

// NewRegistry creates an active registry for n ranks with no
// endpoints registered yet.
func NewRegistry(n int) *Registry {
	r := &Registry{
		n:           n,
		active:      true,
		prim:        make([]transport.Addr, n),
		shad:        make([]transport.Addr, n),
		hasPrim:     make([]bool, n),
		hasShad:     make([]bool, n),
		expectShad:  make([]bool, n),
		synced:      make([]bool, n),
		promoted:    make([]bool, n),
		promotedInc: make([]uint64, n),
		syncReq:     make([]bool, n),
		changed:     make(chan struct{}),
		shadowInc:   make([]uint64, n),
		fenceInc:    make([][]uint64, n),
		fenceSeq:    make([][]uint64, n),
		ckptDone:    [2][]int{make([]int, n), make([]int, n)},
	}
	for i := range r.fenceInc {
		r.fenceInc[i] = make([]uint64, n)
		r.fenceSeq[i] = make([]uint64, n)
	}
	for i := range r.expectShad {
		r.expectShad[i] = true // every launch rank starts with a shadow
	}
	return r
}

// N returns the rank count.
func (r *Registry) N() int { return r.n }

func (r *Registry) bump() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// SetPrimary registers (or replaces) the primary endpoint of rank.
func (r *Registry) SetPrimary(rank int, addr transport.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prim[rank] = addr
	r.hasPrim[rank] = true
	r.bump()
}

// SetShadow registers (or replaces) the shadow endpoint of rank. A
// launch-time shadow starts from the same initial state as its
// primary and is synced (promotable) immediately; a re-provisioned
// replacement (needSync) must first pull a state snapshot from its
// primary and is held un-promotable until MarkSynced. The returned
// incarnation identifies this registration: the process keeps it and
// presents it to PromotedSelf after a later promotion.
func (r *Registry) SetShadow(rank int, addr transport.Addr, needSync bool) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shad[rank] = addr
	r.hasShad[rank] = true
	r.expectShad[rank] = true
	r.synced[rank] = !needSync
	r.syncReq[rank] = needSync
	if needSync {
		// Mid-run registration: advance the incarnation so every sender
		// re-acknowledges its flip fence (stale acks are keyed by the
		// old incarnation and ignored). Launch shadows stay at
		// incarnation zero — senders mirror from their first message,
		// so there is no pre-flip traffic to fence.
		r.shadowInc[rank]++
		r.incGen++
	}
	r.bump()
	return r.shadowInc[rank]
}

// Ready blocks until every rank has both a primary and a shadow
// registered (the replicated analogue of the bootstrap barrier), the
// registry is deactivated, or cancel fires.
func (r *Registry) Ready(cancel <-chan struct{}) error {
	for {
		r.mu.Lock()
		if !r.active {
			r.mu.Unlock()
			return ErrInactive
		}
		done := true
		for i := 0; i < r.n; i++ {
			if !r.hasPrim[i] || (r.expectShad[i] && !r.hasShad[i]) {
				done = false
				break
			}
		}
		ch := r.changed
		r.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ch:
		case <-cancel:
			return ErrCancelled
		}
	}
}

// Lookup resolves rank to its current primary and shadow endpoints.
// ok is false once the registry is deactivated (callers fall back to
// the generation's plain routing table). The shadow address is
// transport.NilAddr while the rank runs unprotected (shadow lost,
// replacement not yet registered).
func (r *Registry) Lookup(rank int) (prim, shad transport.Addr, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active || rank < 0 || rank >= r.n || !r.hasPrim[rank] {
		return transport.NilAddr, transport.NilAddr, false
	}
	prim = r.prim[rank]
	if r.hasShad[rank] {
		shad = r.shad[rank]
	} else {
		shad = transport.NilAddr
	}
	return prim, shad, true
}

// Promote flips rank's routing to its shadow: the shadow endpoint
// becomes the primary and the rank runs unprotected until a
// replacement shadow registers. It fails if the registry is inactive,
// no shadow is registered, or the shadow never finished syncing —
// the caller must then fall back to rollback recovery.
func (r *Registry) Promote(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active || !r.hasShad[rank] || !r.synced[rank] {
		return false
	}
	r.prim[rank] = r.shad[rank]
	r.hasShad[rank] = false
	r.expectShad[rank] = false
	r.shad[rank] = transport.NilAddr
	r.synced[rank] = false
	r.syncReq[rank] = false
	r.promoted[rank] = true
	r.promotedInc[rank] = r.shadowInc[rank]
	r.ckptDone[0][rank], r.ckptDone[1][rank] = r.ckptDone[1][rank], 0
	r.bump()
	return true
}

// Promoted reports whether rank's current primary is a promoted
// shadow. It keeps answering after Deactivate: a promoted shadow
// must keep acting as the primary through a later degrade.
func (r *Registry) Promoted(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted[rank]
}

// PromotedSelf reports whether the shadow registration identified by
// inc is the one whose promotion made it rank's acting primary. A
// replacement shadow provisioned on the same seat after the promotion
// carries a newer incarnation and is not the acting primary — it must
// keep behaving as a shadow even though Promoted(rank) is true.
func (r *Registry) PromotedSelf(rank int, inc uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoted[rank] && r.promotedInc[rank] == inc
}

// DropShadow removes rank's shadow endpoint (its node died); the rank
// keeps running unprotected until a replacement registers.
func (r *Registry) DropShadow(rank int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hasShad[rank] = false
	r.expectShad[rank] = false
	r.shad[rank] = transport.NilAddr
	r.synced[rank] = false
	r.syncReq[rank] = false
	r.bump()
}

// TakeSyncRequest returns (and clears) a pending state-snapshot
// request from rank's re-provisioned shadow. The primary polls this
// at the top of each Loop.
func (r *Registry) TakeSyncRequest(rank int) (transport.Addr, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active || !r.syncReq[rank] || !r.hasShad[rank] {
		return transport.NilAddr, false
	}
	r.syncReq[rank] = false
	return r.shad[rank], true
}

// SyncPending reports whether rank's shadow has an outstanding
// state-snapshot request, without consuming it — the primary checks
// this before its (possibly deferred) fence wait.
func (r *Registry) SyncPending(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active && r.syncReq[rank] && r.hasShad[rank]
}

// LookupInc is Lookup plus rank's shadow incarnation, read atomically:
// a sender that observes a new incarnation must acknowledge its flip
// fence (AckShadow) before the first send it mirrors to the new
// endpoint.
func (r *Registry) LookupInc(rank int) (prim, shad transport.Addr, inc uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active || rank < 0 || rank >= r.n || !r.hasPrim[rank] {
		return transport.NilAddr, transport.NilAddr, 0, false
	}
	prim = r.prim[rank]
	if r.hasShad[rank] {
		shad = r.shad[rank]
	} else {
		shad = transport.NilAddr
	}
	return prim, shad, r.shadowInc[rank], true
}

// ShadowGen returns a counter that advances whenever ANY rank's shadow
// incarnation does — a cheap change detector for the per-Loop ack
// sweep (procs rescan the per-rank incarnations only when it moves).
func (r *Registry) ShadowGen() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.incGen
}

// ShadowInc returns rank's current shadow incarnation: zero for the
// launch registration, advancing once per mid-run replacement.
func (r *Registry) ShadowInc(rank int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= r.n {
		return 0
	}
	return r.shadowInc[rank]
}

// AckShadow records a sender's flip fence for incarnation inc of
// rank's shadow: seq is the last sequence number this copy of the
// sender put on the wire toward rank's pair BEFORE it began mirroring
// to the replacement endpoint. Both copies of a sender share one slot;
// the minimum fence wins, which is safe because each copy's mirrored
// stream covers everything above its own fence — the union therefore
// covers everything above the minimum.
func (r *Registry) AckShadow(rank, sender int, inc, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= r.n || sender < 0 || sender >= r.n {
		return
	}
	if inc != r.shadowInc[rank] {
		return // stale: a newer replacement superseded this flip
	}
	if r.fenceInc[rank][sender] == inc {
		if seq < r.fenceSeq[rank][sender] {
			r.fenceSeq[rank][sender] = seq
		}
		return
	}
	r.fenceInc[rank][sender] = inc
	r.fenceSeq[rank][sender] = seq
}

// SyncFences returns the per-sender flip fences for rank's current
// shadow incarnation, or ok=false while some sender rank has not
// acknowledged the flip yet. The acting primary defers the snapshot
// harvest until its arrival watermarks cover every fence: at that
// point all pre-flip traffic has landed here, so the snapshot
// (segments + watermarks + unconsumed queue) covers the replacement's
// entire pre-mirror prefix and its direct streams splice in gap-free.
func (r *Registry) SyncFences(rank int) ([]uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= r.n {
		return nil, false
	}
	cur := r.shadowInc[rank]
	fences := make([]uint64, r.n)
	for s := 0; s < r.n; s++ {
		if s == rank {
			continue // a rank does not message itself over the transport
		}
		if r.fenceInc[rank][s] != cur {
			return nil, false
		}
		fences[s] = r.fenceSeq[rank][s]
	}
	return fences, true
}

// MarkSynced flags rank's shadow as promotable (its state snapshot
// has been applied); l1 is the checkpoint ordinal it adopted.
func (r *Registry) MarkSynced(rank, l1 int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hasShad[rank] {
		r.synced[rank] = true
		r.ckptDone[1][rank] = l1
	}
	r.bump()
}

// CommitCheckpoint records that the copy of rank on the shadow side
// (or the acting primary) committed level-1 checkpoint ordinal l1.
func (r *Registry) CommitCheckpoint(rank int, shadow bool, l1 int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= r.n {
		return
	}
	side := 0
	if shadow {
		side = 1
	}
	if l1 > r.ckptDone[side][rank] {
		r.ckptDone[side][rank] = l1
		r.bump()
	}
}

// AwaitPartnerCheckpoint blocks a copy of rank about to start the
// checkpoint after ordinal l1 until the other copy has committed l1,
// so the two never run more than one checkpoint apart. It returns at
// once when there is no other copy to wait for (dropped, promoted
// away, or a replacement not yet synced) or the registry is inactive,
// and ErrCancelled when cancel fires first.
func (r *Registry) AwaitPartnerCheckpoint(rank int, shadow bool, l1 int, cancel <-chan struct{}) error {
	for {
		r.mu.Lock()
		if !r.active || rank < 0 || rank >= r.n {
			r.mu.Unlock()
			return nil
		}
		live, done := r.hasShad[rank] && r.synced[rank], r.ckptDone[1][rank]
		if shadow {
			live, done = r.hasPrim[rank], r.ckptDone[0][rank]
		}
		ch := r.changed
		r.mu.Unlock()
		if !live || done >= l1 {
			return nil
		}
		select {
		case <-ch:
		case <-cancel:
			return ErrCancelled
		}
	}
}

// ShadowState reports rank's shadow bookkeeping atomically:
// registered, synced (promotable), and whether a state-snapshot
// request is still pending (taken requests report reqPending=false —
// the snapshot is in flight). The resize fence uses it to decide
// which shadows must park as observers before a view change commits.
func (r *Registry) ShadowState(rank int) (registered, synced, reqPending bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || rank >= r.n || !r.active {
		return false, false, false
	}
	return r.hasShad[rank], r.synced[rank], r.syncReq[rank]
}

// BeginEpoch re-keys the registry for a new world size at a
// view-change fence. Every endpoint registration is cleared — all
// surviving procs rebuild their generations across the fence and
// re-register, and Ready blocks until the whole new world has —
// while the identity state that must survive the fence is kept:
// promotion flags (a promoted shadow keeps acting as primary) and
// shadow incarnations (resized, prefix preserved, so flip-fence acks
// from before the fence stay stale-keyed rather than colliding).
func (r *Registry) BeginEpoch(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active {
		return
	}
	promoted := make([]bool, n)
	promotedInc := make([]uint64, n)
	shadowInc := make([]uint64, n)
	copy(promoted, r.promoted)
	copy(promotedInc, r.promotedInc)
	copy(shadowInc, r.shadowInc)
	expect := make([]bool, n)
	for i := 0; i < n; i++ {
		if i < len(r.hasShad) {
			// A surviving shadow crosses the fence only if it was synced
			// (parked as a fence observer); anything else re-registers on
			// its own schedule and must not gate Ready.
			expect[i] = r.hasShad[i] && r.synced[i]
		} else {
			expect[i] = true // grow joiners launch with a shadow
		}
	}
	r.n = n
	r.prim = make([]transport.Addr, n)
	r.shad = make([]transport.Addr, n)
	r.hasPrim = make([]bool, n)
	r.hasShad = make([]bool, n)
	r.expectShad = expect
	r.synced = make([]bool, n)
	r.syncReq = make([]bool, n)
	r.promoted = promoted
	r.promotedInc = promotedInc
	r.shadowInc = shadowInc
	for side, done := range r.ckptDone {
		r.ckptDone[side] = append(done, make([]int, max(0, n-len(done)))...)[:n]
	}
	r.fenceInc = make([][]uint64, n)
	r.fenceSeq = make([][]uint64, n)
	for i := range r.fenceInc {
		r.fenceInc[i] = make([]uint64, n)
		r.fenceSeq[i] = make([]uint64, n)
	}
	r.bump()
}

// Active reports whether replicated routing is still in force.
func (r *Registry) Active() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.active
}

// Deactivate permanently flips the job to plain routing (a pair was
// lost in one event — replication cannot mask it) and wakes any
// Ready waiter with ErrInactive.
func (r *Registry) Deactivate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active {
		return
	}
	r.active = false
	r.bump()
}
