package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Matching wildcards.
const (
	AnySource int32 = -1
	AnyTag    int32 = -0x40000000 // outside both user and runtime tag ranges
)

// Matcher errors.
var (
	ErrMatcherClosed = errors.New("transport: matcher closed")
	ErrCancelled     = errors.New("transport: receive cancelled")
)

// maxLaneSrc bounds the per-source lane table; a frame claiming a
// source beyond it is routed to the misc lane rather than allocating
// an attacker-sized table.
const maxLaneSrc = 1 << 16

// Matcher implements MPI-style message matching on top of an Endpoint:
// receives are matched against (ctx, src, tag) with wildcard source and
// tag, messages that arrive before a matching receive is posted wait in
// an unexpected-message queue, and matching preserves arrival order
// (non-overtaking per (src, tag, ctx)).
//
// Ingress is sharded into per-source lanes: each lane owns its
// source's unexpected queue, posted receives, future-epoch buffer,
// dedup watermark, and counters under its own lock, so concurrent
// senders stop serialising on one mutex. Posted receives carry a
// global posting ticket; a message matches the earliest-posted
// receive across its lane and the AnySource queue, preserving MPI's
// posting-order semantics. AnySource operations take the slow path:
// every lane locked in ascending rank order (misc last, then the
// AnySource queue lock), which both prevents lost wakeups and makes
// wildcard matching deterministic — the lowest-ranked source with a
// matching message wins, not whichever lane a map walk visits first.
//
// The Matcher is the consumer of its endpoint's per-source rings:
// every receive call pumps them inline before looking at its lane, and
// the demux goroutine answers the endpoint's bell for traffic that
// arrives while all receivers are parked or that backs a ring up.
//
// The Matcher also enforces the paper's epoch rule (§IV-D): messages
// from an older epoch than the current one are discarded silently;
// messages from a *newer* epoch (possible in the instant between a
// peer finishing recovery and this process bumping its own epoch) are
// buffered and delivered after the epoch advances.
//
// Under the recovery protocols that sequence the data plane (local and
// replica) the Matcher also admits each source's sequenced messages
// (Seq != 0) exactly once and in order, after Seed arms it: a message
// at or below the source's watermark is a duplicate — a replayed copy,
// a re-executed send of a respawned rank, or the second copy of a
// mirrored send — and is counted and discarded; a message above the
// next expected number waits in the lane's held set until the gap
// fills (the frames in between are on their way over another path or
// will be replayed), so the watermark is always the top of a
// contiguous prefix. That one rule serves both protocols: a plain high
// watermark would accept the frame above the gap and then drop the
// frame that fills it as a duplicate. Frames still held when the
// matcher is torn down are released and counted (LaneCounters.Held);
// whatever regenerates the gap — a replay or the partner copy —
// regenerates them too.
type Matcher struct {
	ep Endpoint
	// ingestFn is m.ingest bound once: passing a fresh method value
	// to Pump would allocate a 16-byte closure per pump, and the pump
	// sits on the receive fast path.
	ingestFn func(Msg)

	// growMu orders lane-table growth and the AnySource lock-all
	// path; lanes is the atomically-published table so the per-source
	// fast path is one load plus one index.
	growMu sync.Mutex
	lanes  atomic.Pointer[laneTable]

	// anyMu guards the AnySource posted queue. Lock order: growMu ->
	// lane locks in ascending rank order -> misc -> anyMu; ingress
	// takes a single lane lock before anyMu, which nests consistently.
	anyMu   sync.Mutex
	anyPend []*recvReq
	anyN    atomic.Int32 // len(anyPend), for a lock-free empty check

	postSeq atomic.Uint64 // posting-order tickets
	epoch   atomic.Uint32
	view    atomic.Uint64 // minimum acceptable membership view (0 = off)
	dedupN  atomic.Int64  // world size of the seen vector; 0 = sequencing not armed
	closed  atomic.Bool
	closeCh chan struct{}
}

// laneTable is the immutable published lane set: bySrc[i] handles
// source rank i, misc handles negative and out-of-range sources
// (runtime-internal traffic). Growth copies the table.
type laneTable struct {
	bySrc []*lane
	misc  *lane
}

// lane is one source's ingress shard.
type lane struct {
	mu         sync.Mutex
	unexpected []Msg // arrival-order queue; the live window is [unHead:]
	unHead     int   // consumed prefix length: FIFO pops advance it instead of shifting the slice
	pending    []*recvReq
	future     []Msg
	seen       uint64 // top of the contiguous accepted prefix (dedup watermark)
	held       []Msg  // frames above a sequence gap, ascending Seq

	delivered, dropped, dupSuppressed, heldAtClose uint64
}

// unx returns the live unexpected window. Caller holds mu.
func (ln *lane) unx() []Msg { return ln.unexpected[ln.unHead:] }

// pushUnx appends msg to the unexpected queue, compacting the consumed
// prefix first when append would otherwise grow the backing array to
// hold dead slots. Caller holds mu.
func (ln *lane) pushUnx(msg Msg) {
	if ln.unHead > 0 && len(ln.unexpected) == cap(ln.unexpected) {
		n := copy(ln.unexpected, ln.unexpected[ln.unHead:])
		clearMsgs(ln.unexpected[n:])
		ln.unexpected = ln.unexpected[:n]
		ln.unHead = 0
	}
	ln.unexpected = append(ln.unexpected, msg)
}

// resetUnx installs a queue rebuilt by a sweep (built with
// append(ln.unexpected[:0], ...), so it aliases the backing array) and
// zeroes the vacated tail so swept frames are not pinned. Caller
// holds mu.
func (ln *lane) resetUnx(keep []Msg) {
	clearMsgs(ln.unexpected[len(keep):])
	ln.unexpected = keep
	ln.unHead = 0
}

func clearMsgs(ms []Msg) {
	for i := range ms {
		ms[i] = Msg{}
	}
}

// LaneCounters is one source lane's delivery statistics. Held counts
// the frames the lane still held above a sequence gap when the matcher
// was torn down.
type LaneCounters struct {
	Delivered     uint64
	Dropped       uint64
	DupSuppressed uint64
	Held          uint64
}

type recvReq struct {
	ctx      uint32
	src, tag int32
	seq      uint64 // posting ticket: earliest posted matches first
	reply    chan Msg
}

// NewMatcher creates a matcher over ep and starts its demux goroutine.
func NewMatcher(ep Endpoint) *Matcher {
	m := &Matcher{ep: ep, closeCh: make(chan struct{})}
	m.ingestFn = m.ingest
	m.lanes.Store(&laneTable{misc: &lane{}})
	go m.demux()
	return m
}

// demux answers the endpoint's bell. A pump that reports the endpoint
// dead closes the matcher: that is the one signal, on either network,
// by which blocked receives learn their endpoint is gone.
func (m *Matcher) demux() {
	bell := m.ep.Bell()
	for {
		select {
		case <-bell:
			if !m.pump() {
				m.Close()
				return
			}
		case <-m.closeCh:
			return
		}
	}
}

// pump drains the endpoint's rings through ingest. Called inline at
// every receive entry point — the receiver's own call context consumes
// its rings, so the fast path needs no goroutine hand-off — and from
// demux on the bell.
func (m *Matcher) pump() bool { return m.ep.Pump(m.ingestFn) }

// laneFor routes a source rank to its lane, growing the table on
// first contact with a new source.
func (m *Matcher) laneFor(src int32) *lane {
	t := m.lanes.Load()
	if src < 0 || src >= maxLaneSrc {
		return t.misc
	}
	if int(src) < len(t.bySrc) {
		return t.bySrc[src]
	}
	return m.growLane(int(src))
}

func (m *Matcher) growLane(src int) *lane {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	t := m.lanes.Load()
	if src < len(t.bySrc) {
		return t.bySrc[src]
	}
	nt := &laneTable{bySrc: make([]*lane, src+1), misc: t.misc}
	copy(nt.bySrc, t.bySrc)
	for i := len(t.bySrc); i <= src; i++ {
		nt.bySrc[i] = &lane{}
	}
	m.lanes.Store(nt)
	return nt.bySrc[src]
}

// lockAll takes every lane lock in ascending rank order (misc last)
// with growMu held, freezing the lane set. The AnySource slow path:
// while held, no message can be filed unexpected and no competing
// receive can be posted, so scanning the lanes and registering in
// anyPend is one atomic step.
func (m *Matcher) lockAll() *laneTable {
	m.growMu.Lock()
	t := m.lanes.Load()
	for _, ln := range t.bySrc {
		//fmilint:ignore lockorder every multi-lane lock walks ascending rank order under growMu, so no two holders ever disagree on direction
		ln.mu.Lock()
	}
	t.misc.mu.Lock()
	//fmilint:ignore lockheld lockAll/unlockAll are a hand-off pair; every caller releases via unlockAll
	return t
}

func (m *Matcher) unlockAll(t *laneTable) {
	t.misc.mu.Unlock()
	for _, ln := range t.bySrc {
		ln.mu.Unlock()
	}
	m.growMu.Unlock()
}

// ingest files one inbound frame: it passes the epoch gate and lands
// in its source's lane.
func (m *Matcher) ingest(msg Msg) {
	ln := m.laneFor(msg.Src)
	ln.mu.Lock()
	e := m.epoch.Load()
	switch {
	case m.closed.Load():
		// Checked under the lane lock: Teardown empties each lane under
		// it, so a frame filed after that would never be released.
		ln.mu.Unlock()
		msg.Release()
		return
	case msg.Epoch < e:
		ln.dropped++
		ln.mu.Unlock()
		msg.Release() // stale epoch: discard (paper §IV-D)
		return
	case msg.Epoch > e:
		ln.future = append(ln.future, msg)
		ln.mu.Unlock()
		return
	}
	m.matchOrQueueLane(ln, msg)
	ln.mu.Unlock()
}

// matchOrQueueLane files msg (fileLane), then every held frame the new
// watermark has reached. Caller holds ln.mu.
func (m *Matcher) matchOrQueueLane(ln *lane, msg Msg) {
	m.fileLane(ln, msg)
	m.releaseHeld(ln)
}

// releaseHeld files the held frames that no longer sit above a gap.
// Caller holds ln.mu.
func (m *Matcher) releaseHeld(ln *lane) {
	for len(ln.held) > 0 && ln.held[0].Seq <= ln.seen+1 {
		next := ln.held[0]
		ln.held[0] = Msg{}
		ln.held = ln.held[1:]
		m.fileLane(ln, next)
	}
}

// hold parks a frame that arrived above a sequence gap, in Seq order;
// a second copy of a held frame is a duplicate. Caller holds ln.mu.
func (ln *lane) hold(msg Msg) {
	at := len(ln.held)
	for i, h := range ln.held {
		if h.Seq == msg.Seq {
			ln.dupSuppressed++
			msg.Release()
			return
		}
		if h.Seq > msg.Seq {
			at = i
			break
		}
	}
	ln.held = append(ln.held, Msg{})
	copy(ln.held[at+1:], ln.held[at:])
	ln.held[at] = msg
}

// fileLane applies view filtering and duplicate suppression, then
// hands msg to the earliest-posted matching receive — across the
// lane's posted queue and the AnySource queue — or files it
// unexpected. Caller holds ln.mu.
func (m *Matcher) fileLane(ln *lane, msg Msg) {
	if v := m.view.Load(); v != 0 && msg.View != 0 && msg.View < v {
		// Stamped under a membership view that has since been replaced:
		// the sender had not yet observed the view change. Epoch
		// filtering already excludes almost all such traffic (every view
		// change is an epoch fence); this is the defence in depth that
		// makes stale-view delivery structurally impossible.
		ln.dropped++
		msg.Release()
		return
	}
	if n := m.dedupN.Load(); n > 0 && msg.Seq != 0 {
		if int64(msg.Src) < 0 || int64(msg.Src) >= n {
			msg.Release() // malformed source on a sequenced message
			return
		}
		if msg.Seq <= ln.seen {
			ln.dupSuppressed++
			msg.Release()
			return
		}
		if msg.Seq > ln.seen+1 {
			// The frames in between are still on their way (over the
			// source's other path, or in a replay to come); accepting
			// this one now would raise the watermark over them and drop
			// them as duplicates.
			ln.hold(msg)
			return
		}
		ln.seen = msg.Seq
	}
	li := firstMatch(ln.pending, msg)
	if m.anyN.Load() > 0 {
		m.anyMu.Lock()
		ai := firstMatch(m.anyPend, msg)
		if ai >= 0 && (li < 0 || m.anyPend[ai].seq < ln.pending[li].seq) {
			req := m.anyPend[ai]
			m.anyPend = append(m.anyPend[:ai], m.anyPend[ai+1:]...)
			m.anyN.Add(-1)
			ln.delivered++
			//fmilint:ignore lockheld reply has capacity 1 and a req removed from its queue gets exactly one send; holding anyMu here is what lets wait's cancel path prefer the message
			req.reply <- msg
			m.anyMu.Unlock()
			return
		}
		m.anyMu.Unlock()
	}
	if li >= 0 {
		req := ln.pending[li]
		ln.pending = append(ln.pending[:li], ln.pending[li+1:]...)
		ln.delivered++
		req.reply <- msg
		return
	}
	ln.pushUnx(msg)
}

// firstMatch returns the index of the earliest-posted receive in q
// that msg satisfies, or -1.
func firstMatch(q []*recvReq, msg Msg) int {
	for i, req := range q {
		if reqMatches(req, msg) {
			return i
		}
	}
	return -1
}

func reqMatches(req *recvReq, msg Msg) bool {
	return req.ctx == msg.Ctx &&
		(req.src == AnySource || req.src == msg.Src) &&
		(req.tag == AnyTag || req.tag == msg.Tag)
}

// takeLane removes and returns the earliest unexpected message in ln
// matching the probe. Caller holds ln.mu. The FIFO common case (match
// at the head) is O(1) however deep the backlog: the consumed prefix
// is tracked by unHead instead of shifting the whole queue, so a
// sender that outruns its receiver cannot turn matching quadratic.
func takeLane(ln *lane, probe *recvReq) (Msg, bool) {
	un := ln.unexpected
	for i := ln.unHead; i < len(un); i++ {
		if reqMatches(probe, un[i]) {
			msg := un[i]
			// Close the gap by shifting the (usually empty) live
			// prefix up one slot, then advance the head.
			copy(un[ln.unHead+1:i+1], un[ln.unHead:i])
			un[ln.unHead] = Msg{}
			ln.unHead++
			if ln.unHead == len(un) {
				ln.unexpected = un[:0]
				ln.unHead = 0
			}
			ln.delivered++
			return msg, true
		}
	}
	return Msg{}, false
}

// takeAnyLocked scans the frozen lane set in ascending rank order
// (misc last) for the probe's match. Caller holds all lane locks.
func takeAnyLocked(t *laneTable, probe *recvReq) (Msg, bool) {
	for _, ln := range t.bySrc {
		if msg, ok := takeLane(ln, probe); ok {
			return msg, true
		}
	}
	return takeLane(t.misc, probe)
}

// reqPool recycles posted-receive records and their one-slot reply
// channels, so a receive that has to park performs no allocation. A
// record is recycled only once it is provably unreferenced: matched
// (removed from its queue by ingress) or cancelled (removed by wait
// under the lock, reply drained). The close path leaks its record to
// the GC instead: AdvanceEpoch does not check closed, so a recycled
// record could otherwise receive a stray late message.
var reqPool = sync.Pool{New: func() any { return &recvReq{reply: make(chan Msg, 1)} }}

// post takes the earliest unexpected message matching (ctx, src, tag)
// or, when there is none, registers a receive for it; matching order
// follows posting order. On success exactly one of the message and the
// request is set (req == nil means msg is the match). An AnySource
// post takes the slow path: all lanes locked in rank order, so the
// scan and the registration are one atomic step.
func (m *Matcher) post(ctx uint32, src, tag int32) (msg Msg, req *recvReq, err error) {
	m.pump()
	probe := recvReq{ctx: ctx, src: src, tag: tag}
	var ln *lane
	var t *laneTable
	var ok bool
	if src == AnySource {
		t = m.lockAll()
		defer m.unlockAll(t)
	} else {
		ln = m.laneFor(src)
		ln.mu.Lock()
		defer ln.mu.Unlock()
	}
	if m.closed.Load() {
		return Msg{}, nil, ErrMatcherClosed
	}
	if ln != nil {
		msg, ok = takeLane(ln, &probe)
	} else {
		msg, ok = takeAnyLocked(t, &probe)
	}
	if ok {
		return msg, nil, nil
	}
	req = reqPool.Get().(*recvReq)
	req.ctx, req.src, req.tag = ctx, src, tag
	req.seq = m.postSeq.Add(1)
	if ln != nil {
		ln.pending = append(ln.pending, req)
	} else {
		m.anyMu.Lock()
		m.anyPend = append(m.anyPend, req)
		m.anyN.Add(1)
		m.anyMu.Unlock()
	}
	return Msg{}, req, nil
}

// wait parks until the posted receive matches, cancel fires, or the
// matcher closes, and ends req's life. Producers tap the bell per frame
// only while a waiter is registered, so the waiter count is raised
// before parking and — Dekker-style — the rings pumped once more
// afterwards: a frame published by a producer that read the count as
// zero is then either seen by this pump or announced by the producer's
// bell tap; either way it cannot strand while we sleep.
func (m *Matcher) wait(req *recvReq, cancel <-chan struct{}) (Msg, error) {
	m.ep.AddWaiter(1)
	defer m.ep.AddWaiter(-1)
	m.pump()
	fail := ErrCancelled
	select {
	case msg := <-req.reply:
		reqPool.Put(req)
		return msg, nil
	case <-m.closeCh:
		fail = ErrMatcherClosed
	case <-cancel:
	}
	// Withdraw req under the lock ingress matches under: once it is
	// off its queue nothing can send to reply, so a match that raced
	// the cancel or the close is already there — prefer the message
	// (on close it would otherwise be a frame nobody releases).
	if req.src == AnySource {
		m.anyMu.Lock()
		var removed bool
		if m.anyPend, removed = removeReq(m.anyPend, req); removed {
			m.anyN.Add(-1)
		}
		m.anyMu.Unlock()
	} else {
		ln := m.laneFor(req.src)
		ln.mu.Lock()
		ln.pending, _ = removeReq(ln.pending, req)
		ln.mu.Unlock()
	}
	defer reqPool.Put(req)
	select {
	case msg := <-req.reply:
		return msg, nil
	default:
		return Msg{}, fail
	}
}

func removeReq(q []*recvReq, req *recvReq) ([]*recvReq, bool) {
	for i, r := range q {
		if r == req {
			return append(q[:i], q[i+1:]...), true
		}
	}
	return q, false
}

// Pending is a posted receive awaiting its match. MPI semantics:
// receives match arriving messages in the order they were *posted*, so
// nonblocking receives must post synchronously (PostRecv) and may
// await later.
type Pending struct {
	m       *Matcher
	req     *recvReq // nil when the post matched at once
	matched Msg
}

// PostRecv registers a receive for (ctx, src, tag); matching order
// follows posting order. src may be AnySource and tag may be AnyTag.
// The returned Pending must be Awaited, once.
func (m *Matcher) PostRecv(ctx uint32, src, tag int32) (*Pending, error) {
	msg, req, err := m.post(ctx, src, tag)
	if err != nil {
		return nil, err
	}
	return &Pending{m: m, req: req, matched: msg}, nil
}

// Await blocks until the posted receive matches, the cancel channel
// fires, or the matcher closes.
func (p *Pending) Await(cancel <-chan struct{}) (Msg, error) {
	if p.req == nil {
		return p.matched, nil
	}
	return p.m.wait(p.req, cancel)
}

// Test pumps the matcher's rings and reports, without blocking, whether
// the posted receive has matched; a matched message is kept for Await.
func (p *Pending) Test() bool {
	if p.req == nil {
		return true
	}
	p.m.pump()
	select {
	case msg := <-p.req.reply:
		reqPool.Put(p.req)
		p.req, p.matched = nil, msg
		return true
	default:
		return false
	}
}

// Recv blocks until a message matching (ctx, src, tag) arrives, the
// cancel channel fires, or the matcher closes. src may be AnySource
// and tag may be AnyTag. This is the runtime's innermost receive: a
// matched receive performs no allocation.
func (m *Matcher) Recv(ctx uint32, src, tag int32, cancel <-chan struct{}) (Msg, error) {
	msg, req, err := m.post(ctx, src, tag)
	if req == nil {
		return msg, err
	}
	return m.wait(req, cancel)
}

// TryRecv performs a non-blocking matched receive from the unexpected
// queues (an MPI_Iprobe+Recv analogue).
func (m *Matcher) TryRecv(ctx uint32, src, tag int32) (Msg, bool) {
	m.pump()
	probe := recvReq{ctx: ctx, src: src, tag: tag}
	if src == AnySource {
		t := m.lockAll()
		msg, ok := takeAnyLocked(t, &probe)
		m.unlockAll(t)
		return msg, ok
	}
	ln := m.laneFor(src)
	ln.mu.Lock()
	msg, ok := takeLane(ln, &probe)
	ln.mu.Unlock()
	return msg, ok
}

// Epoch returns the current epoch.
func (m *Matcher) Epoch() uint32 { return m.epoch.Load() }

// AdvanceEpoch moves the matcher to epoch e: queued messages older
// than e are discarded (including everything unexpected from previous
// epochs) and buffered future messages at exactly e are re-delivered.
func (m *Matcher) AdvanceEpoch(e uint32) {
	// An epoch fence is an explicit flush boundary for queueing
	// transports: everything queued for the old epoch goes to the wire
	// before we start filtering against the new one.
	if f, ok := m.ep.(Flusher); ok {
		f.FlushBarrier()
	}
	for {
		cur := m.epoch.Load()
		if e <= cur {
			return
		}
		if m.epoch.CompareAndSwap(cur, e) {
			break
		}
	}
	// Sweep the lanes. A message can race the fence into a lane we
	// have already swept; it is filtered against the new epoch at
	// ingest, so the sweep and the gate agree.
	t := m.lanes.Load()
	for _, ln := range t.bySrc {
		m.sweepLaneEpoch(ln, e)
	}
	m.sweepLaneEpoch(t.misc, e)
}

func (m *Matcher) sweepLaneEpoch(ln *lane, e uint32) {
	ln.mu.Lock()
	keep := ln.unexpected[:0]
	for _, msg := range ln.unx() {
		if msg.Epoch < e {
			ln.dropped++
			msg.Release()
		} else {
			keep = append(keep, msg)
		}
	}
	ln.resetUnx(keep)
	flush := ln.future
	ln.future = nil
	var still []Msg
	for _, msg := range flush {
		switch {
		case msg.Epoch < e:
			ln.dropped++
			msg.Release()
		case msg.Epoch > e:
			still = append(still, msg)
		default:
			m.matchOrQueueLane(ln, msg)
		}
	}
	ln.future = still
	ln.mu.Unlock()
}

// AdvanceView raises the minimum acceptable membership view version:
// view-stamped messages below it are discarded on delivery. Like
// epochs, views only move forward. Messages already accepted (the
// unexpected queues, Inject carry-over) are unaffected — they were
// accepted under a view the receiver had installed at the time.
func (m *Matcher) AdvanceView(v uint64) {
	for {
		cur := m.view.Load()
		if v <= cur {
			return
		}
		if m.view.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Stats returns (delivered, dropped, duplicate-suppressed) message
// counts summed across lanes. dropped counts stale-epoch discards
// (paper §IV-D); dupSuppressed counts sequenced duplicates discarded
// by the receive-side watermarks. The rings are pumped
// first, so frames that have arrived but were never asked for count.
func (m *Matcher) Stats() (delivered, dropped, dupSuppressed uint64) {
	m.pump()
	t := m.lockAll()
	for _, ln := range t.bySrc {
		delivered += ln.delivered
		dropped += ln.dropped
		dupSuppressed += ln.dupSuppressed
	}
	delivered += t.misc.delivered
	dropped += t.misc.dropped
	dupSuppressed += t.misc.dupSuppressed
	m.unlockAll(t)
	return
}

// LaneStats returns the per-source counters, indexed by source rank.
// Sources the matcher never heard from report zeros; misc (negative
// source) traffic is visible only in the Stats aggregate.
func (m *Matcher) LaneStats() []LaneCounters {
	t := m.lockAll()
	out := make([]LaneCounters, len(t.bySrc))
	for i, ln := range t.bySrc {
		out[i] = LaneCounters{Delivered: ln.delivered, Dropped: ln.dropped, DupSuppressed: ln.dupSuppressed, Held: ln.heldAtClose}
	}
	m.unlockAll(t)
	return out
}

// Seed arms sequenced admission for a world of n ranks and adopts
// per-source watermarks: state carried over from the previous
// generation's matcher on a survivor, restored from the checkpointed
// receive state on a respawned rank, or a primary's snapshot spliced
// into a re-provisioned shadow (nil seen: every stream starts at 1).
// Watermarks only move forward. Under the same lane locks it purges the
// queued sequenced messages at or below the handed-over watermarks —
// whoever hands over a watermark hands over the unconsumed messages
// below it too (Inject them after Seed) — and files the held frames
// the new watermarks have reached. Messages this matcher accepted
// above a handed-over watermark stay: a shadow can hear a stream ahead
// of the primary whose snapshot it adopts, and those messages are in
// no snapshot.
func (m *Matcher) Seed(n int, seen []uint64) {
	if len(seen) > n {
		n = len(seen)
	}
	if n == 0 {
		return
	}
	m.growLane(n - 1)
	for {
		cur := m.dedupN.Load()
		if int64(n) <= cur || m.dedupN.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	t := m.lanes.Load()
	for i := 0; i < n; i++ {
		var s uint64
		if i < len(seen) {
			s = seen[i]
		}
		ln := t.bySrc[i]
		ln.mu.Lock()
		ln.seen = max(ln.seen, s)
		keep := ln.unexpected[:0]
		for _, msg := range ln.unx() {
			if msg.Seq != 0 && msg.Seq <= s {
				ln.dupSuppressed++
				msg.Release()
			} else {
				keep = append(keep, msg)
			}
		}
		ln.resetUnx(keep)
		m.releaseHeld(ln)
		ln.mu.Unlock()
	}
}

// SeenVector returns a copy of the per-source ingress watermarks: the
// highest sequenced message accepted from each source. During replay
// negotiation this is exactly the rank's "what I already have" vector.
func (m *Matcher) SeenVector() []uint64 {
	n := int(m.dedupN.Load())
	t := m.lanes.Load()
	out := make([]uint64, n)
	for i := 0; i < n && i < len(t.bySrc); i++ {
		ln := t.bySrc[i]
		ln.mu.Lock()
		out[i] = ln.seen
		ln.mu.Unlock()
	}
	return out
}

// ResetSeen zeroes the ingress watermarks and drops queued sequenced
// messages — used when a local-recovery run falls back to a global
// (level-2) rollback, after which every rank restarts its streams from
// scratch in lockstep.
func (m *Matcher) ResetSeen() {
	t := m.lanes.Load()
	for _, ln := range t.bySrc {
		ln.mu.Lock()
		ln.seen = 0
		releaseAll(ln.held)
		ln.held = nil
		keep := ln.unexpected[:0]
		for _, msg := range ln.unx() {
			if msg.Seq == 0 {
				keep = append(keep, msg)
			} else {
				msg.Release()
			}
		}
		ln.resetUnx(keep)
		ln.mu.Unlock()
	}
}

// Inject files already-accepted messages in their source lanes'
// unexpected queues, bypassing the epoch and duplicate filters (their
// sequence numbers are already covered by the seeded watermarks).
// Used to carry accepted-but-unconsumed messages across an epoch
// fence, to restore a checkpointed queue on a respawned rank, and to
// splice a primary's queue into a re-provisioned shadow. The lane may
// already hold newer messages of the same source that arrived
// directly, so a sequenced message goes ahead of every queued one
// with a higher sequence number: matching takes the first queued
// message that fits, and two messages of one source on one tag must
// match in the order they were sent.
func (m *Matcher) Inject(msgs []Msg) {
	for _, msg := range msgs {
		ln := m.laneFor(msg.Src)
		ln.mu.Lock()
		ln.insertUnx(msg)
		ln.mu.Unlock()
	}
}

// insertUnx files msg in sequence order among the queued sequenced
// messages (unsequenced ones keep arrival order). Caller holds mu.
func (ln *lane) insertUnx(msg Msg) {
	at := len(ln.unx())
	if msg.Seq != 0 {
		for i, q := range ln.unx() {
			if q.Seq > msg.Seq {
				at = i
				break
			}
		}
	}
	ln.pushUnx(msg) // grows the window by one (compacting may move it)
	live := ln.unx()
	copy(live[at+1:], live[at:len(live)-1])
	live[at] = msg
}

// HarvestState snapshots the sequenced receive state for a checkpoint
// or a shadow's sync snapshot: the seen watermarks plus the sequenced
// (data-plane) messages accepted into the unexpected queues but not
// yet consumed, which stay queued. The rings are pumped first so frames
// already published by senders are part of it. Unsequenced control
// messages, future-epoch buffers and held frames are excluded — the
// first are generation-private, the others were never accepted (their
// sequence numbers are above the watermark, so a replay or the partner
// copy regenerates them). The returned messages share the queued
// frames' payloads and have their replay flag cleared; lanes are
// visited in rank order, so the queue snapshot is deterministic.
func (m *Matcher) HarvestState() (seen []uint64, queued []Msg) {
	m.pump()
	t := m.lockAll()
	seen, queued = m.harvestLocked(t)
	m.unlockAll(t)
	return seen, queued
}

func (m *Matcher) harvestLocked(t *laneTable) (seen []uint64, queued []Msg) {
	n := int(m.dedupN.Load())
	if n == 0 {
		return nil, nil // sequencing never armed: nothing to hand over
	}
	seen = make([]uint64, n)
	for i := 0; i < n && i < len(t.bySrc); i++ {
		seen[i] = t.bySrc[i].seen
	}
	for _, ln := range t.bySrc {
		live := ln.unx()
		for j := range live {
			if live[j].Seq == 0 {
				continue
			}
			live[j].Flags &^= FlagReplay
			queued = append(queued, live[j])
		}
	}
	return seen, queued
}

// Teardown shuts the matcher down at the end of its generation and
// hands over its sequenced receive state, as HarvestState describes it:
// the queued messages move to the caller (seed the next matcher with
// Seed, then Inject them). Every other frame the matcher holds is
// released — unsequenced leftovers, future-epoch buffers, and the
// frames held above a gap, which are counted in LaneCounters.Held.
// Blocked receives return ErrMatcherClosed. Idempotent: a second call
// (or one after Close) hands over nothing.
func (m *Matcher) Teardown() (seen []uint64, queued []Msg) {
	m.pump()
	t := m.lockAll()
	if m.closed.CompareAndSwap(false, true) {
		close(m.closeCh)
		seen, queued = m.harvestLocked(t)
		carried := seen != nil
		for _, ln := range t.bySrc {
			ln.empty(carried)
		}
		t.misc.empty(carried)
	}
	m.unlockAll(t)
	return seen, queued
}

// Close shuts the matcher down and releases every frame it holds;
// blocked receives return ErrMatcherClosed.
func (m *Matcher) Close() {
	_, queued := m.Teardown()
	releaseAll(queued)
}

// empty releases every frame the lane holds except the sequenced
// messages a harvest carried, and counts the held ones. Caller holds
// mu.
func (ln *lane) empty(carried bool) {
	for _, msg := range ln.unx() {
		if msg.Seq == 0 || !carried {
			msg.Release()
		}
	}
	ln.resetUnx(ln.unexpected[:0])
	ln.heldAtClose += uint64(len(ln.held))
	releaseAll(ln.held)
	releaseAll(ln.future)
	ln.held, ln.future = nil, nil
}

func releaseAll(ms []Msg) {
	for i := range ms {
		ms[i].Release()
	}
}
