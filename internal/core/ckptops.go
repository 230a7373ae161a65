package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"fmi/internal/ckpt"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

// groupComm adapts the FMI transport to ckpt's ring interface for one
// XOR group; peers are group-local indices. tag separates the
// checkpoint's encode ring (tagCkptRing) from the recovery's rebuild
// (tagCkptRebuild).
type groupComm struct {
	p         *Proc
	members   []int // world ranks
	tag       int32
	decodedAt time.Time // when a rebuild's decode ended (ckpt.PhaseTimer)
}

func (gc *groupComm) Send(peer int, data []byte) error {
	return gc.p.sendRaw(gc.members[peer], ctxWorld, gc.tag, transport.KindCkpt, data)
}

func (gc *groupComm) Recv(peer int) ([]byte, error) {
	msg, err := gc.p.recvRaw(ctxWorld, int32(gc.members[peer]), gc.tag)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}

// Release implements ckpt.Releaser: the coders hand back every ring
// chain and RS chunk they consume, so the encode/decode exchanges run
// allocation-free over the shared arena. With pooling disabled Put is
// a no-op.
func (gc *groupComm) Release(buf []byte) { gc.p.pool.Put(buf) }

// Get implements ckpt.Forwarder: coder scratch (the rebuild's relay
// chain and gather buffer) comes from the shared arena.
func (gc *groupComm) Get(n int) []byte { return gc.p.pool.Get(n) }

// Forward implements ckpt.Forwarder: a ring chain the coder is done
// with travels to the next hop as the frame it arrived in, not a copy
// (in local mode the message log still keeps its own copy; in replica
// mode the shadow of the pair gets one copy).
func (gc *groupComm) Forward(peer int, buf []byte) error {
	return gc.p.forwardRaw(gc.members[peer], ctxWorld, gc.tag, transport.KindCkpt, buf)
}

// DecodeDone implements ckpt.PhaseTimer.
func (gc *groupComm) DecodeDone() { gc.decodedAt = time.Now() }

// groupMeta is exchanged within a group at encode time so any survivor
// can brief a restarted member. In local mode it carries the sender's
// serialized messaging state (replicated, not parity-encoded — see
// msgState).
type groupMeta struct {
	TotalSize int
	Shape     []int  // per-segment sizes of this rank's snapshot
	MsgState  []byte // serialized msgState (local mode; nil otherwise)
}

func encodeGroupMeta(m groupMeta) []byte {
	out := make([]byte, 0, 12+4*len(m.Shape)+len(m.MsgState))
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(m.TotalSize))
	out = append(out, b[:]...)
	binary.LittleEndian.PutUint32(b[:], uint32(len(m.Shape)))
	out = append(out, b[:]...)
	for _, s := range m.Shape {
		binary.LittleEndian.PutUint32(b[:], uint32(s))
		out = append(out, b[:]...)
	}
	binary.LittleEndian.PutUint32(b[:], uint32(len(m.MsgState)))
	out = append(out, b[:]...)
	out = append(out, m.MsgState...)
	return out
}

func decodeGroupMeta(data []byte) (groupMeta, error) {
	if len(data) < 8 {
		return groupMeta{}, fmt.Errorf("fmi: truncated group meta")
	}
	m := groupMeta{TotalSize: int(binary.LittleEndian.Uint32(data))}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	data = data[8:]
	if len(data) < 4*k {
		return groupMeta{}, fmt.Errorf("fmi: truncated group meta shape")
	}
	m.Shape = make([]int, k)
	for i := 0; i < k; i++ {
		m.Shape[i] = int(binary.LittleEndian.Uint32(data[4*i:]))
	}
	data = data[4*k:]
	if len(data) < 4 {
		return groupMeta{}, fmt.Errorf("fmi: truncated group meta msgstate")
	}
	ms := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < ms {
		return groupMeta{}, fmt.Errorf("fmi: truncated group meta msgstate")
	}
	if ms > 0 {
		m.MsgState = make([]byte, ms)
		copy(m.MsgState, data[:ms])
	}
	return m, nil
}

// entryExt extends the ckpt.Entry with the runtime state that must be
// agreed across ranks for a consistent rollback.
type entryExt struct {
	*ckpt.Entry
	Interval    int
	GroupShapes [][]int // segment shape of each group member
	NextCtx     uint32  // communicator context counter at capture time
	CommSeq     int     // communicator creation counter at capture time
	L1Count     int     // level-1 checkpoint ordinal (level-2 cadence)
	// ViewVersion is the membership view the shards were encoded under.
	// A checkpoint from an older view cannot feed a group decode — its
	// parity chain spans the wrong member set — so restores treat it as
	// parity-less until the post-fence checkpoint re-encodes.
	ViewVersion uint64
	// GroupMsgStates holds each group member's serialized msgState at
	// this checkpoint (local mode): replicated so any survivor can hand
	// a respawned member its messaging state along with the brief.
	GroupMsgStates [][]byte
	// pooledSnap/pooledParity mark buffers this runtime drew from the
	// arena (or may safely donate to it): recycleEntry returns them when
	// the entry retires. A snapshot rebuilt by a group reconstruction is
	// flagged too — it is a prefix of the coder's gather buffer, which
	// the coder drew from the arena and nothing else holds. Entries
	// restored from level-2 blobs are never flagged — their buffers
	// alias larger allocations the pool must not adopt.
	pooledSnap   bool
	pooledParity bool
}

// recycleEntry returns a retired entry's flagged buffers to the arena.
// Callers must guarantee the entry is unreachable: it has been replaced
// as the committed checkpoint, or discarded from staging in global mode
// (local-mode staged entries may still be driven by an in-flight
// checkpoint call riding through the fence, so they are never recycled
// from the restore path).
func (p *Proc) recycleEntry(e *entryExt) {
	if e == nil {
		return
	}
	if e.pooledSnap && e.Snap != nil {
		p.pool.Put(e.Snap.Data)
		e.Snap = nil
	}
	if e.pooledParity && e.Parity != nil {
		p.pool.Put(e.Parity)
		e.Parity = nil
	}
	e.pooledSnap, e.pooledParity = false, false
}

// brief is what the informant survivor sends a restarted group member.
type brief struct {
	ChunkLen  int
	RestoreID int
	NextCtx   uint32
	CommSeq   int
	L1Count   int
	Sizes     []int    // checkpoint byte sizes per group member
	Shapes    [][]int  // segment shapes per group member
	MsgStates [][]byte // all members' checkpointed msgStates (local mode)
}

func encodeBrief(b brief) []byte {
	var out []byte
	put := func(v uint32) {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], v)
		out = append(out, w[:]...)
	}
	put(uint32(b.ChunkLen))
	put(uint32(b.RestoreID))
	put(b.NextCtx)
	put(uint32(b.CommSeq))
	put(uint32(b.L1Count))
	put(uint32(len(b.Sizes)))
	for _, s := range b.Sizes {
		put(uint32(s))
	}
	put(uint32(len(b.Shapes)))
	for _, sh := range b.Shapes {
		put(uint32(len(sh)))
		for _, s := range sh {
			put(uint32(s))
		}
	}
	put(uint32(len(b.MsgStates)))
	for _, ms := range b.MsgStates {
		put(uint32(len(ms)))
		out = append(out, ms...)
	}
	return out
}

func decodeBrief(data []byte) (brief, error) {
	var b brief
	get := func() (uint32, error) {
		if len(data) < 4 {
			return 0, fmt.Errorf("fmi: truncated restore brief")
		}
		v := binary.LittleEndian.Uint32(data)
		data = data[4:]
		return v, nil
	}
	vals := make([]uint32, 6)
	for i := range vals {
		v, err := get()
		if err != nil {
			return b, err
		}
		vals[i] = v
	}
	b.ChunkLen = int(vals[0])
	b.RestoreID = int(int32(vals[1]))
	b.NextCtx = vals[2]
	b.CommSeq = int(vals[3])
	b.L1Count = int(vals[4])
	b.Sizes = make([]int, vals[5])
	for i := range b.Sizes {
		v, err := get()
		if err != nil {
			return b, err
		}
		b.Sizes[i] = int(v)
	}
	nsh, err := get()
	if err != nil {
		return b, err
	}
	b.Shapes = make([][]int, nsh)
	for i := range b.Shapes {
		k, err := get()
		if err != nil {
			return b, err
		}
		b.Shapes[i] = make([]int, k)
		for j := range b.Shapes[i] {
			v, err := get()
			if err != nil {
				return b, err
			}
			b.Shapes[i][j] = int(v)
		}
	}
	nms, err := get()
	if err != nil {
		return b, err
	}
	b.MsgStates = make([][]byte, nms)
	for i := range b.MsgStates {
		ms, err := get()
		if err != nil {
			return b, err
		}
		if len(data) < int(ms) {
			return b, fmt.Errorf("fmi: truncated restore brief msgstate")
		}
		if ms > 0 {
			b.MsgStates[i] = make([]byte, ms)
			copy(b.MsgStates[i], data[:ms])
			data = data[ms:]
		}
	}
	return b, nil
}

// checkpoint captures, encodes, and (on global agreement) commits a
// level-1 checkpoint of the segments at loop id (paper §V-A / Fig 9).
//
// The capture+encode stages are pipelined: the snapshot's size and
// shape are pure functions of the registered segments, so the group
// meta is posted before the memcpy capture — peers overlap their own
// capture with this rank's meta latency — and the capture itself lands
// in a pooled buffer recycled when the entry eventually retires.
func (p *Proc) checkpoint(id int, segs [][]byte) error {
	if p.replicaOn() {
		// Pace the pair: start this checkpoint only once the other copy
		// of this rank committed the previous one, so a pair loss can
		// always roll back to a checkpoint every survivor holds (see
		// negotiateRestore).
		if err := p.cfg.Replica.AwaitPartnerCheckpoint(p.rank, p.actingShadow(), p.l1Count, p.gen.cancelCh); err != nil {
			return ErrFailureDetected
		}
	}
	start := time.Now()
	group := p.groups[p.rank]
	gi := p.gidx[p.rank]
	g := len(group)

	total := ckpt.TotalSize(segs)
	shape := make([]int, len(segs))
	for i, s := range segs {
		shape[i] = len(s)
	}
	msgState, seenAtCapture := p.captureMsgState()

	p.l1Count++
	entry := &entryExt{
		Entry:          &ckpt.Entry{GroupLoop: id},
		Interval:       p.interval,
		NextCtx:        p.nextCtx,
		CommSeq:        p.commSeq,
		L1Count:        p.l1Count,
		ViewVersion:    p.viewVersion(),
		GroupMsgStates: make([][]byte, g),
	}
	entry.GroupMsgStates[gi] = msgState

	if g >= 2 {
		// Exchange sizes and segment shapes (plus, in local mode, each
		// member's messaging state) within the group. Posted before the
		// capture so the exchange is in flight while segments copy.
		meta := encodeGroupMeta(groupMeta{TotalSize: total, Shape: shape, MsgState: msgState})
		for i, r := range group {
			if i == gi {
				continue
			}
			if err := p.sendRaw(r, ctxWorld, tagCkptSize, transport.KindCkpt, meta); err != nil {
				return err
			}
		}
	}

	snap := ckpt.CaptureInto(id, segs, p.pool.Get(total))
	entry.Snap = snap
	entry.pooledSnap = p.pool != nil

	if g >= 2 {
		sizes := make([]int, g)
		shapes := make([][]int, g)
		sizes[gi] = total
		shapes[gi] = shape
		for i, r := range group {
			if i == gi {
				continue
			}
			msg, err := p.recvRaw(ctxWorld, int32(r), tagCkptSize)
			if err != nil {
				p.recycleEntry(entry)
				return err
			}
			gm, err := decodeGroupMeta(msg.Data)
			msg.Release() // decode copied every field
			if err != nil {
				p.recycleEntry(entry)
				return err
			}
			sizes[i] = gm.TotalSize
			shapes[i] = gm.Shape
			entry.GroupMsgStates[i] = gm.MsgState
		}
		maxSize := 0
		for _, s := range sizes {
			if s > maxSize {
				maxSize = s
			}
		}
		chunkLen := p.coder.ChunkLen(maxSize, g)
		encStart := time.Now()
		parity, err := p.coder.Encode(&groupComm{p: p, members: group, tag: tagCkptRing}, gi, g, snap.Data, chunkLen)
		if err != nil {
			// Encode sends from the snapshot only by copy (the transports
			// copy an unowned payload at Send; only received chains are
			// handed over), so nothing aliases the pooled snapshot once
			// Encode unwinds; recycle before abandoning.
			p.recycleEntry(entry)
			return err
		}
		entry.Parity = parity
		entry.pooledParity = p.pool != nil
		entry.Scheme = p.coder.Scheme()
		entry.Shards = len(parity) / chunkLen
		entry.ChunkLen = chunkLen
		entry.GroupSizes = sizes
		entry.GroupShapes = shapes
		p.cfg.Trace.Add(trace.KindShardEncode, p.rank, p.epoch,
			"%s encode: %d parity shard(s) x %d B in %v (group of %d)",
			entry.Scheme, entry.Shards, chunkLen, time.Since(encStart), g)
	}
	p.stage(entry)

	// Global completion agreement: all ranks must hold the new
	// checkpoint before anyone retires the previous one. Rank 0
	// piggybacks the next auto-tuned interval on the release wave.
	next := p.interval
	if p.rank == 0 && p.autoInterval && !p.reexec {
		// During a replacement's checkpoint re-execution the negotiated
		// (post-agree) interval is rebroadcast verbatim: re-tuning from
		// this incarnation's EWMAs could hand a still-blocked survivor a
		// different value than the original wave delivered.
		next = p.tuneInterval()
	}
	var payload [8]byte
	binary.LittleEndian.PutUint32(payload[:4], uint32(next))
	binary.LittleEndian.PutUint32(payload[4:], uint32(p.l1Count))
	// Note: on failure the fully-encoded staged entry is deliberately
	// retained — if every rank finished encoding before the failure,
	// the restore negotiation will roll forward to it; otherwise it
	// will roll back to the committed one and recovery discards it.
	out, err := p.world.agreeBcast(tagCkptAgree, payload[:])
	if err != nil {
		return err
	}
	p.interval = int(binary.LittleEndian.Uint32(out))
	entry.Interval = p.interval
	if len(out) >= 8 {
		// Adopt the root's checkpoint ordinal: a rank that joined
		// through a grow fence folds onto the survivors' level-2 cadence
		// and log-trim keys regardless of recovery mode.
		p.l1Count = int(binary.LittleEndian.Uint32(out[4:]))
		entry.L1Count = p.l1Count
	}
	// Retirement point: the previous checkpoint is now unreachable on
	// every rank, so its pooled buffers feed the next capture. A
	// local-mode fence may have rolled this very entry forward already —
	// never recycle the entry being committed.
	if p.committed != entry {
		if p.cfg.Replica != nil {
			p.recycleEntry(p.prior)
			p.prior = p.committed
		} else {
			p.recycleEntry(p.committed)
		}
	}
	p.committed = entry
	p.staged = nil
	p.lastCkpt = id
	if p.replicaOn() {
		p.cfg.Replica.CommitCheckpoint(p.rank, p.actingShadow(), p.l1Count)
	}
	p.viewCkpt = false // shards now encoded under the current view
	if p.log != nil {
		p.trimLog(entry.L1Count, seenAtCapture)
		ents, bytes := p.log.Stats()
		p.cfg.Trace.Add(trace.KindMsgLogged, p.rank, p.epoch,
			"log holds %d entries (%d B) at checkpoint %d", ents, bytes, id)
	}
	if err := p.maybeWriteL2(id); err != nil {
		return err
	}

	d := time.Since(start)
	p.ckptEWMA = ewma(p.ckptEWMA, d)
	p.cfg.Stats.AddCheckpoint(d, len(snap.Data))
	p.cfg.Trace.Add(trace.KindCheckpoint, p.rank, p.epoch, "checkpoint %d (%d B, interval %d)", id, len(snap.Data), p.interval)
	return nil
}

// stage installs a fully-encoded entry as the staging buffer; the
// previously committed checkpoint stays valid until the global
// agreement commits this one (double buffering, paper §V-A).
func (p *Proc) stage(e *entryExt) {
	p.staged = e
}

// latest returns the newest locally available checkpoint: a fully
// staged entry (its encode finished — stage happens only after the
// ring completes) or else the committed one.
func (p *Proc) latest() *entryExt {
	if p.staged != nil {
		return p.staged
	}
	return p.committed
}

// availInfo is this rank's contribution to the restore negotiation.
type availInfo struct {
	AvailID       int32 // newest loop id this rank can restore (-1 none)
	Interval      int32 // interval associated with that checkpoint
	IsReplacement bool
	HasParity     bool   // the entry carries a parity chain decodable under the CURRENT view
	Fresh         bool   // joiner from a grow fence: no checkpoint, nothing lost either
	Clean         bool   // survivor parked at a committed fence cut, no app progress since
	L1Count       uint32 // level-1 checkpoint ordinal (joiners adopt the survivors' max)
	Era           uint32 // logging era (joiners adopt the survivors' max)
}

func (p *Proc) availNow() availInfo {
	e := p.latest()
	info := availInfo{
		AvailID:       -1,
		Interval:      int32(p.interval),
		IsReplacement: e == nil && p.cfg.IsReplacement,
		Fresh:         e == nil && !p.ckptSeeded && !p.cfg.IsReplacement && p.cfg.StartLoop > 0,
		Clean:         p.fenceClean,
		L1Count:       uint32(p.l1Count),
		Era:           p.logEra,
	}
	if e != nil {
		info.AvailID = int32(e.Snap.LoopID)
		info.Interval = int32(e.Interval)
		// Parity encoded under an older membership view spans the wrong
		// group member set: unusable for a decode in this view.
		info.HasParity = e.Parity != nil && e.ViewVersion == p.viewVersion()
	}
	return info
}

func encodeAvail(a availInfo) []byte {
	out := make([]byte, 20)
	binary.LittleEndian.PutUint32(out[0:], uint32(a.AvailID))
	binary.LittleEndian.PutUint32(out[4:], uint32(a.Interval))
	if a.IsReplacement {
		out[8] = 1
	}
	if a.HasParity {
		out[9] = 1
	}
	binary.LittleEndian.PutUint32(out[10:], a.L1Count)
	binary.LittleEndian.PutUint32(out[14:], a.Era)
	if a.Fresh {
		out[18] = 1
	}
	if a.Clean {
		out[19] = 1
	}
	return out
}

func decodeAvail(data []byte) availInfo {
	if len(data) < 20 {
		return availInfo{AvailID: -1}
	}
	return availInfo{
		AvailID:       int32(binary.LittleEndian.Uint32(data[0:])),
		Interval:      int32(binary.LittleEndian.Uint32(data[4:])),
		IsReplacement: data[8] == 1,
		HasParity:     data[9] == 1,
		L1Count:       binary.LittleEndian.Uint32(data[10:]),
		Era:           binary.LittleEndian.Uint32(data[14:]),
		Fresh:         data[18] == 1,
		Clean:         data[19] == 1,
	}
}

func ewma(old, sample time.Duration) time.Duration {
	if old == 0 {
		return sample
	}
	return time.Duration(0.7*float64(old) + 0.3*float64(sample))
}
