package core

import (
	"fmt"

	"fmi/internal/coll"
	"fmi/internal/enc"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

// Op combines src into acc element-wise; acc and src have equal
// length. The operator MUST be commutative and associative: the
// collective engine folds contributions in whatever order its selected
// algorithm dictates (binomial tree, recursive-doubling pairs, ring
// chunks), which is not the rank order used by the pre-Loop
// coordinator path's foldVals. Floating-point sums may therefore
// differ in the last ulp between algorithms — exactly as across MPI
// implementations. The public fmi package provides typed constructors.
type Op func(acc, src []byte)

// Collectives are schedule-driven (internal/coll): each operation asks
// the configured policy for an algorithm, generates that algorithm's
// pure per-rank schedule, and drives it over the p2p layer below. A
// failure mid-schedule surfaces exactly like a failed Recv — the
// executor aborts and the error (ErrFailureDetected for a notified
// failure) unwinds to Loop, which repairs the world by rollback in
// global mode; in local mode survivors ride the epoch fence inside
// recvRaw and the schedule simply continues, since deterministic
// schedules plus per-pair FIFO ordering make the replayed traffic land
// in the same steps.

// collTP adapts one (communicator, tag) pair to the schedule
// executor's transport: schedule peers are comm ranks, translated to
// world ranks here. Sends are eager (the transport copies payloads and
// blocks only under backpressure), which is what lets the executor
// post a whole round of sends before draining its receives.
type collTP struct {
	c   *Comm
	tag int32
}

func (t collTP) Send(peer int, data []byte) error {
	return t.c.p.sendRaw(t.c.members[peer], t.c.ctx, t.tag, transport.KindColl, data)
}

func (t collTP) Recv(peer int) ([]byte, error) {
	msg, err := t.c.p.recvRaw(t.c.ctx, int32(t.c.members[peer]), t.tag)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}

// Release implements coll.Releaser: the schedule executor hands back
// every received frame it consumes without retaining (folded reduce
// contributions, sync tokens, unpacked multi-block carriers), keeping
// collective steps allocation-free on the shared arena.
func (t collTP) Release(buf []byte) { t.c.p.pool.Put(buf) }

// Detach implements coll.Releaser: a frame the executor installs in
// the block table outlives the schedule (results go to the caller), so
// it leaves the arena's accounting.
func (t collTP) Detach(buf []byte) { t.c.p.pool.Detach(buf) }

// selectAlgo consults the policy and, when a recorder is set, records
// the choice in the trace (the coll-algo event), making per-operation
// algorithm selection observable in timelines.
func (c *Comm) selectAlgo(op coll.Opcode, bytes int) coll.Algo {
	algo := c.p.cfg.Coll.Select(op, bytes, c.Size())
	if c.p.cfg.Trace != nil {
		c.p.cfg.Trace.Add(trace.KindCollAlgo, c.p.rank, c.p.epoch,
			"%s algo=%s bytes=%d n=%d", op, algo, bytes, c.Size())
	}
	return algo
}

// schedKey names one generated schedule: the operation, its algorithm,
// this rank's index, the communicator size and the root (0 for rootless
// operations).
type schedKey struct {
	op           coll.Opcode
	algo         coll.Algo
	idx, n, root int
}

// schedule returns this rank's schedule of op under algo, generated
// once per key and cached on the communicator: schedules are pure and
// Exec never mutates them. The key carries the size, so a resized world
// communicator gets schedules for its new size.
func (c *Comm) schedule(op coll.Opcode, algo coll.Algo, root int) (*coll.Schedule, error) {
	k := schedKey{op: op, algo: algo, idx: c.myIdx, n: c.Size(), root: root}
	if s, ok := c.scheds[k]; ok {
		return s, nil
	}
	s, err := genSchedule(k)
	if err != nil {
		return nil, err
	}
	if c.scheds == nil {
		c.scheds = make(map[schedKey]*coll.Schedule)
	}
	c.scheds[k] = s
	return s, nil
}

// genSchedule runs the generator k names.
func genSchedule(k schedKey) (*coll.Schedule, error) {
	switch k.op {
	case coll.OpBcast:
		return coll.Bcast(k.algo, k.idx, k.n, k.root)
	case coll.OpReduce:
		return coll.Reduce(k.algo, k.idx, k.n, k.root)
	case coll.OpBarrier:
		return coll.Barrier(k.algo, k.idx, k.n)
	case coll.OpAllreduce:
		return coll.Allreduce(k.algo, k.idx, k.n)
	case coll.OpAllgather:
		return coll.Allgather(k.algo, k.idx, k.n)
	case coll.OpAlltoall:
		return coll.Alltoall(k.algo, k.idx, k.n)
	case coll.OpGather:
		return coll.Gather(k.algo, k.idx, k.n, k.root)
	case coll.OpScatter:
		return coll.Scatter(k.algo, k.idx, k.n, k.root)
	}
	return nil, fmt.Errorf("fmi: no schedule generator for %s", k.op)
}

// exec drives a schedule over this communicator on the given reserved
// tag. Consecutive collectives may share a tag safely: schedules are
// deterministic and the transport delivers per-(sender, receiver) in
// FIFO order, so matched receives cannot cross operation boundaries.
func (c *Comm) exec(tag int32, s *coll.Schedule, blocks [][]byte, op Op) error {
	return coll.Exec(s, collTP{c, tag}, blocks, coll.ReduceFn(op))
}

// agreeBcast is the checkpoint completion wave used by the level-1 and
// level-2 commit protocols: a zero-payload binomial reduce-to-0
// synchronisation followed by a binomial broadcast of the root's
// payload on the same reserved tag (the wire pattern of the original
// hand-rolled trees).
func (c *Comm) agreeBcast(tag int32, payload []byte) ([]byte, error) {
	if c.Size() == 1 {
		return payload, nil
	}
	up, err := c.schedule(coll.OpReduce, coll.AlgoBinomial, 0)
	if err != nil {
		return nil, err
	}
	if err := c.exec(tag, up, [][]byte{nil}, nil); err != nil {
		return nil, err
	}
	dn, err := c.schedule(coll.OpBcast, coll.AlgoBinomial, 0)
	if err != nil {
		return nil, err
	}
	blocks := [][]byte{payload}
	if err := c.exec(tag, dn, blocks, nil); err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// coordExchange runs a pre-Loop collective through the coordinator,
// where the result is cached for replay by restarted processes. A
// failure during the initialisation phase cannot be repaired by a
// rollback (there is no checkpoint yet), so the exchange instead rides
// it out: rebuild the generation for the new epoch and retry the same
// cached key — the replacement process replays its initialisation and
// eventually contributes the missing value.
func (c *Comm) coordExchange(op string, contribution []byte) ([][]byte, error) {
	seq := c.collSeq
	c.collSeq++
	key := fmt.Sprintf("coll/%d/%s/%d", c.ctx, op, seq)
	return c.p.coordGather(key, c.myIdx, c.Size(), contribution)
}

// coordGather is the shared retrying coordinator all-gather used by
// replayable operations (pre-Loop collectives and Split).
func (p *Proc) coordGather(key string, idx, n int, val []byte) ([][]byte, error) {
	for {
		vals, err := p.cfg.Ctl.Coordinator().AllGather(key, idx, n, val, p.gen.cancelCh)
		if err == nil {
			return vals, nil
		}
		p.checkAlive()
		if p.ranLoop {
			// Post-Loop callers recover through Loop, not here.
			return nil, ErrFailureDetected
		}
		next, werr := p.cfg.Ctl.AwaitEpoch(p.epoch+1, p.killCh())
		if werr != nil {
			return nil, ErrFailureDetected
		}
		p.epoch = next
		if err := p.rebuildUntilStable(); err != nil {
			p.fatal(err)
		}
	}
}

// preLoop reports whether collectives should take the replayable
// coordinator path (no Loop call has happened yet).
func (c *Comm) preLoop() bool { return !c.p.ranLoop }

// Barrier blocks until every rank of the communicator reaches it.
func (c *Comm) Barrier() error {
	if err := c.p.checkComm(); err != nil {
		return err
	}
	if c.preLoop() {
		_, err := c.coordExchange("barrier", nil)
		return err
	}
	if c.Size() == 1 {
		return nil
	}
	s, err := c.schedule(coll.OpBarrier, c.selectAlgo(coll.OpBarrier, 0), 0)
	if err != nil {
		return err
	}
	return c.exec(tagBarrierUp, s, nil, nil)
}

// Bcast broadcasts the root's buffer to all ranks; every rank returns
// the payload.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: bcast root %d", ErrInvalidRank, root)
	}
	if c.preLoop() {
		var contrib []byte
		if c.myIdx == root {
			contrib = data
		}
		vals, err := c.coordExchange("bcast", contrib)
		if err != nil {
			return nil, err
		}
		return vals[root], nil
	}
	if c.Size() == 1 {
		return data, nil
	}
	s, err := c.schedule(coll.OpBcast, c.selectAlgo(coll.OpBcast, len(data)), root)
	if err != nil {
		return nil, err
	}
	blocks := [][]byte{nil}
	if c.myIdx == root {
		blocks[0] = data
	}
	if err := c.exec(tagBcast, s, blocks, nil); err != nil {
		return nil, err
	}
	return blocks[0], nil
}

// Reduce combines all ranks' equal-length buffers with op; the root
// returns the result, others return nil. op must be commutative and
// associative (see Op): contributions fold in tree order. A length
// mismatch between ranks is reported by the first rank that folds the
// offending contribution, naming both peers and sizes.
func (c *Comm) Reduce(root int, data []byte, op Op) ([]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: reduce root %d", ErrInvalidRank, root)
	}
	if c.preLoop() {
		vals, err := c.coordExchange("reduce", data)
		if err != nil {
			return nil, err
		}
		if c.myIdx != root {
			return nil, nil
		}
		return foldVals(vals, op)
	}
	acc := append([]byte(nil), data...)
	if c.Size() > 1 {
		s, err := c.schedule(coll.OpReduce, c.selectAlgo(coll.OpReduce, len(data)), root)
		if err != nil {
			return nil, err
		}
		blocks := [][]byte{acc}
		if err := c.exec(tagReduce, s, blocks, op); err != nil {
			return nil, err
		}
		acc = blocks[0]
	}
	if c.myIdx == root {
		return acc, nil
	}
	return nil, nil
}

// Allreduce combines all ranks' buffers and returns the result on
// every rank. The algorithm is selected by payload size: recursive
// doubling for latency-bound small buffers, a bandwidth-optimal ring
// reduce-scatter + allgather for large ones (and the legacy
// reduce+bcast tree via policy override). op must be commutative and
// associative (see Op); all ranks must pass equal-length buffers.
func (c *Comm) Allreduce(data []byte, op Op) ([]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	if c.preLoop() {
		vals, err := c.coordExchange("allreduce", data)
		if err != nil {
			return nil, err
		}
		return foldVals(vals, op)
	}
	n := c.Size()
	buf := append([]byte(nil), data...)
	if n == 1 {
		return buf, nil
	}
	algo := c.selectAlgo(coll.OpAllreduce, len(data))
	s, err := c.schedule(coll.OpAllreduce, algo, 0)
	if err != nil {
		return nil, err
	}
	var blocks [][]byte
	if algo == coll.AlgoRing {
		blocks = coll.SplitChunks(buf, n)
	} else {
		blocks = [][]byte{buf}
	}
	if err := c.exec(tagAllreduce, s, blocks, op); err != nil {
		return nil, err
	}
	if algo == coll.AlgoRing {
		return coll.JoinChunks(blocks), nil
	}
	return blocks[0], nil
}

// foldVals combines gathered contributions in rank order (pre-Loop
// coordinator path only; the data-plane engine folds in schedule
// order — both are valid because Op is commutative and associative).
func foldVals(vals [][]byte, op Op) ([]byte, error) {
	if len(vals) == 0 {
		return nil, nil
	}
	acc := append([]byte{}, vals[0]...)
	for i, v := range vals[1:] {
		if len(v) != len(acc) {
			return nil, fmt.Errorf("fmi: reduce payload length mismatch (rank %d contributed %d bytes, rank 0 contributed %d)", i+1, len(v), len(acc))
		}
		if op != nil {
			op(acc, v)
		}
	}
	return acc, nil
}

// Gather collects every rank's buffer at the root, which returns them
// indexed by comm rank; other ranks return nil. Buffers may have
// different lengths. Small communicators send linearly to the root;
// larger ones fold packed subtrees up a binomial tree.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("%w: gather root %d", ErrInvalidRank, root)
	}
	if c.preLoop() {
		vals, err := c.coordExchange("gather", data)
		if err != nil {
			return nil, err
		}
		if c.myIdx != root {
			return nil, nil
		}
		return vals, nil
	}
	n := c.Size()
	s, err := c.schedule(coll.OpGather, c.selectAlgo(coll.OpGather, len(data)), root)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, n)
	blocks[c.myIdx] = append([]byte{}, data...)
	if err := c.exec(tagGather, s, blocks, nil); err != nil {
		return nil, err
	}
	if c.myIdx != root {
		return nil, nil
	}
	return blocks, nil
}

// Allgather collects every rank's buffer on every rank. Power-of-two
// communicators use recursive doubling (log rounds of packed block
// ranges); others rotate blocks around a ring, never repacking.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	if c.preLoop() {
		return c.coordExchange("allgather", data)
	}
	n := c.Size()
	s, err := c.schedule(coll.OpAllgather, c.selectAlgo(coll.OpAllgather, len(data)), 0)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, n)
	blocks[c.myIdx] = append([]byte{}, data...)
	if err := c.exec(tagAllgather, s, blocks, nil); err != nil {
		return nil, err
	}
	return blocks, nil
}

// Scatter distributes parts[i] to comm rank i from the root; every
// rank returns its part. Only the root's parts argument is consulted.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: scatter root %d", ErrInvalidRank, root)
	}
	if c.preLoop() {
		var contrib []byte
		if c.myIdx == root {
			if len(parts) != n {
				return nil, fmt.Errorf("fmi: scatter needs %d parts, got %d", n, len(parts))
			}
			contrib = packSlices(parts)
		}
		vals, err := c.coordExchange("scatter", contrib)
		if err != nil {
			return nil, err
		}
		all, err := unpackSlices(vals[root])
		if err != nil || len(all) != n {
			return nil, fmt.Errorf("fmi: scatter decode failed: %v", err)
		}
		return all[c.myIdx], nil
	}
	var total int
	if c.myIdx == root {
		if len(parts) != n {
			return nil, fmt.Errorf("fmi: scatter needs %d parts, got %d", n, len(parts))
		}
		for _, p := range parts {
			total += len(p)
		}
	}
	s, err := c.schedule(coll.OpScatter, c.selectAlgo(coll.OpScatter, total), root)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, n)
	if c.myIdx == root {
		copy(blocks, parts)
	}
	if err := c.exec(tagScatter, s, blocks, nil); err != nil {
		return nil, err
	}
	if c.myIdx == root {
		return append([]byte{}, parts[root]...), nil
	}
	return blocks[c.myIdx], nil
}

// Alltoall exchanges parts pairwise: rank i receives parts[i] from
// every rank, returned indexed by source comm rank. Small uniform
// exchanges take Bruck's log-round packed shuffle; large ones run
// nonblocking pairwise rounds (each round's send is posted before its
// receive, so symmetric exchanges cannot deadlock). The size heuristic
// samples the local payload and assumes roughly size-symmetric traffic
// (MPI_Alltoall's uniform-count shape); irregular alltoallv-style
// exchanges should pin an algorithm via the Collectives config.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	n := c.Size()
	if len(parts) != n {
		return nil, fmt.Errorf("fmi: alltoall needs %d parts, got %d", n, len(parts))
	}
	if c.preLoop() {
		vals, err := c.coordExchange("alltoall", packSlices(parts))
		if err != nil {
			return nil, err
		}
		out := make([][]byte, n)
		for src, v := range vals {
			theirs, err := unpackSlices(v)
			if err != nil || len(theirs) != n {
				return nil, fmt.Errorf("fmi: alltoall decode failed: %v", err)
			}
			out[src] = theirs[c.myIdx]
		}
		return out, nil
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	s, err := c.schedule(coll.OpAlltoall, c.selectAlgo(coll.OpAlltoall, total), 0)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, s.Blocks)
	copy(blocks, parts)
	blocks[c.myIdx] = append([]byte{}, parts[c.myIdx]...)
	if s.Blocks == 2*n { // pairwise: staging region for received parts
		blocks[n+c.myIdx] = blocks[c.myIdx]
	}
	if err := c.exec(tagAlltoall, s, blocks, nil); err != nil {
		return nil, err
	}
	return blocks[s.Blocks-n:], nil
}

// packSlices and unpackSlices frame a [][]byte with u32 length
// prefixes; the shared implementation lives in internal/enc (also used
// by the schedule executor for multi-block steps).
func packSlices(parts [][]byte) []byte { return enc.PackSlices(parts) }

func unpackSlices(data []byte) ([][]byte, error) { return enc.UnpackSlices(data) }
