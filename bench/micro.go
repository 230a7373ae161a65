package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fmi"
	"fmi/internal/bootstrap"
	"fmi/internal/bufpool"
	"fmi/internal/ckpt"
	"fmi/internal/coll"
	"fmi/internal/enc"
	"fmi/internal/erasure"
	"fmi/internal/himeno"
	"fmi/internal/msglog"
	"fmi/internal/overlay"
	"fmi/internal/trace"
	"fmi/internal/transport"
)

// The micro-drivers time calls into each layer's public functions from
// outside: a layer here is a package under internal/. Each reports the
// median of MicroN timed batches; counts are exact.

// timed is a micro-driver's operation: do it n times and return how
// long that took, leaving out whatever the driver does not measure.
type timed func(n int) (time.Duration, error)

// micro sizes a batch so that it takes MicroBatch, warms up with one,
// and samples name from MicroN more; conv turns nanoseconds per
// operation into the metric.
func (j *job) micro(name string, conv func(nsPerOp float64) float64, op timed) {
	fail := func(err error) { j.check(false, "%s: %v", name, err) }
	n := 1
	for n < 1<<22 {
		el, err := op(n)
		if err != nil {
			fail(err)
			return
		}
		var done bool
		if n, done = sizeBatch(n, el, j.sz.MicroBatch); done {
			break
		}
	}
	for i := 0; i < j.sz.MicroN; i++ {
		el, err := op(n)
		if err != nil {
			fail(err)
			return
		}
		j.sample(name, conv(float64(el.Nanoseconds())/float64(n)))
	}
}

func ns(v float64) float64     { return v }
func nsToUs(v float64) float64 { return v / 1e3 }
func nsToMs(v float64) float64 { return v / 1e6 }

// perSec turns nanoseconds per operation of size units into units per
// second over 10^6: MB/s for bytes.
func perSec(units int) func(float64) float64 {
	return func(nsPerOp float64) float64 { return float64(units) / nsPerOp * 1e3 }
}

// loop times n calls of f.
func loop(f func()) timed {
	return func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start), nil
	}
}

func (j *job) microJob() {
	pool := bufpool.New()
	j.microTransport(pool)
	j.microBufpool(pool)
	j.microEnc()
	j.microColl()
	j.microCkpt(pool)
	j.microMsglog()
	j.microBootstrap()
	j.microLaunch()
	j.microTrace()
	j.microHimeno()
	// These three did not repeat within a tenth, so they are reported
	// here, as measured, and not end to end.
	j.runMsg([]msgPhase{
		{"core.rtt_1MiB_us", pingPong, 2, j.sz.ReduceBytes, usec},
		{"core.rtt_64KiB_colo_us", pingPong, 1, j.sz.MidBytes, usec},
		{"core.allreduce_1MiB_us", allreduce, 0, j.sz.ReduceBytes, usec},
	}, 60*j.sz.BatchTarget, false)
}

// link is a sender, a receiver and the receiver's matcher.
type link struct {
	src, dst transport.Endpoint
	m        *transport.Matcher
}

// newLink creates two endpoints on nw: on node 0 both, so that they
// share a ring, when colo is set; unplaced otherwise.
func newLink(nw transport.Network, colo bool) (*link, error) {
	mk := func() (transport.Endpoint, error) {
		if np, ok := nw.(transport.NodePlacer); ok && colo {
			return np.NewEndpointOnNode(0, nil)
		}
		return nw.NewEndpoint(nil)
	}
	src, err := mk()
	if err != nil {
		return nil, err
	}
	dst, err := mk()
	if err != nil {
		src.Close()
		return nil, err
	}
	return &link{src, dst, transport.NewMatcher(dst)}, nil
}

func (l *link) close() {
	l.m.Close()
	l.dst.Close()
	l.src.Close()
}

// sendRecv is one Send, the matching Matcher.Recv, and the Release.
func (l *link) sendRecv(buf []byte) timed {
	return func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := l.src.Send(l.dst.Addr(), transport.Msg{Src: 0, Tag: 1, Data: buf}); err != nil {
				return 0, err
			}
			msg, err := l.m.Recv(0, 0, 1, nil)
			if err != nil {
				return 0, err
			}
			msg.Release()
		}
		return time.Since(start), nil
	}
}

// flood is n sends from one goroutine while this one receives them.
func (l *link) flood(buf []byte) timed {
	return func(n int) (time.Duration, error) {
		sendErr := make(chan error, 1)
		start := time.Now()
		go func() {
			for i := 0; i < n; i++ {
				if err := l.src.Send(l.dst.Addr(), transport.Msg{Src: 0, Tag: 1, Data: buf}); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		for i := 0; i < n; i++ {
			msg, err := l.m.Recv(0, 0, 1, nil)
			if err != nil {
				return 0, err
			}
			msg.Release()
		}
		el := time.Since(start)
		return el, <-sendErr
	}
}

func (j *job) microTransport(pool *bufpool.Arena) {
	const eager = 16 << 10
	buf := make([]byte, eager)
	withLink := func(name string, nw transport.Network, colo bool, f func(l *link)) {
		l, err := newLink(nw, colo)
		if err != nil {
			j.check(false, "%s: %v", name, err)
			return
		}
		defer l.close()
		f(l)
	}
	chanNet := func(o transport.Options) transport.Network {
		o.Pool = pool
		return transport.NewChanNetwork(o)
	}
	withLink("transport.chan_send_ns", chanNet(transport.Options{}), false, func(l *link) {
		j.micro("transport.chan_send_ns", ns, l.sendRecv(buf))
		// Allocations per send, receive and release, counted by the
		// runtime over one long batch.
		const n = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := l.sendRecv(buf)(n); err != nil {
			j.check(false, "transport.send_allocs: %v", err)
			return
		}
		runtime.ReadMemStats(&after)
		j.sample("transport.send_allocs", float64(after.Mallocs-before.Mallocs)/n)
	})
	withLink("transport.stream_64KiB_MBps", chanNet(transport.Options{}), false, func(l *link) {
		j.micro("transport.stream_64KiB_MBps", perSec(j.sz.MidBytes), l.flood(make([]byte, j.sz.MidBytes)))
	})
	withLink("transport.ring_send_ns", chanNet(transport.Options{Endpoints: 2}), true, func(l *link) {
		j.micro("transport.ring_send_ns", ns, l.sendRecv(buf))
		// Messages per second over 10^3.
		j.micro("transport.flood_64B_kmsgps", func(v float64) float64 { return 1e6 / v }, l.flood(make([]byte, 64)))
	})
	// A 16-slot ring, so that the producer outruns the consumer and the
	// overflow is coalesced into batch frames.
	withLink("transport.batched_send_ns", chanNet(transport.Options{Endpoints: 2, RingSlots: 16}), true, func(l *link) {
		j.micro("transport.batched_send_ns", ns, l.flood(make([]byte, 2<<10)))
	})
	withLink("transport.tcp_send_ns", transport.NewTCPNetwork(transport.Options{Pool: pool}), false, func(l *link) {
		j.micro("transport.tcp_send_ns", ns, l.sendRecv(buf))
	})
	j.microContention(pool)
}

// microContention is 8 senders into one matcher, the shape a rank sees
// at the peak of an all-to-all round; the metric is per message.
func (j *job) microContention(pool *bufpool.Arena) {
	const name = "transport.matcher_contention_ns"
	const senders = 8
	nw := transport.NewChanNetwork(transport.Options{Pool: pool, Endpoints: senders + 1})
	dst, err := nw.NewEndpoint(nil)
	if err != nil {
		j.check(false, "%s: %v", name, err)
		return
	}
	m := transport.NewMatcher(dst)
	defer func() { m.Close(); dst.Close() }()
	var srcs []transport.Endpoint
	for s := 0; s < senders; s++ {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			j.check(false, "%s: %v", name, err)
			return
		}
		defer ep.Close()
		srcs = append(srcs, ep)
	}
	buf := make([]byte, 2<<10)
	j.micro(name, func(v float64) float64 { return v / senders }, func(n int) (time.Duration, error) {
		errs := make(chan error, senders)
		start := time.Now()
		for s := range srcs {
			go func(s int) {
				for i := 0; i < n; i++ {
					if err := srcs[s].Send(dst.Addr(), transport.Msg{Src: int32(s), Tag: 1, Data: buf}); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(s)
		}
		for i := 0; i < n; i++ {
			for s := range srcs {
				msg, err := m.Recv(0, int32(s), 1, nil)
				if err != nil {
					return 0, err
				}
				msg.Release()
			}
		}
		el := time.Since(start)
		for range srcs {
			if err := <-errs; err != nil {
				return 0, err
			}
		}
		return el, nil
	})
}

func (j *job) microBufpool(pool *bufpool.Arena) {
	j.micro("bufpool.get_put_ns", ns, loop(func() { pool.Put(pool.Get(16 << 10)) }))
	// Every transport driver above drew its frames from this arena.
	st := pool.Stats()
	if st.Gets > 0 {
		j.sample("bufpool.hit_share", 100*(1-float64(st.Misses)/float64(st.Gets)))
	}
}

func (j *job) microEnc() {
	parts := make([][]byte, 8)
	for i := range parts {
		parts[i] = make([]byte, 2<<10)
	}
	scratch := make([]byte, 0, enc.PackedLen(parts))
	j.micro("enc.pack_ns", ns, loop(func() { scratch = enc.PackSlicesInto(scratch[:0], parts) }))
	packed := enc.PackSlices(parts)
	var err error
	j.micro("enc.unpack_ns", ns, loop(func() {
		if _, e := enc.UnpackSlices(packed); e != nil {
			err = e
		}
	}))
	batch := enc.AppendBatchHeader(nil, len(parts))
	for _, p := range parts {
		batch = enc.AppendBatchPart(batch, p)
	}
	j.micro("enc.batch_unpack_ns", ns, loop(func() {
		if _, e := enc.UnpackBatch(batch); e != nil {
			err = e
		}
	}))
	j.check(err == nil, "enc: %v", err)
}

// memWorld is a coll.Transport among goroutines of this process: the
// executor's cost without a network. Send copies, as the eager
// transports do.
type memWorld struct {
	n     int
	links []chan []byte // links[src*n+dst]
}

func newMemWorld(n int) *memWorld {
	w := &memWorld{n: n, links: make([]chan []byte, n*n)}
	for i := range w.links {
		// A schedule posts all of a round's sends before its receives;
		// 64 outstanding frames per pair is more than any round has.
		w.links[i] = make(chan []byte, 64)
	}
	return w
}

type memRank struct {
	w    *memWorld
	rank int
}

func (r memRank) Send(peer int, data []byte) error {
	r.w.links[r.rank*r.w.n+peer] <- append([]byte(nil), data...)
	return nil
}

func (r memRank) Recv(peer int) ([]byte, error) {
	return <-r.w.links[peer*r.w.n+r.rank], nil
}

func (j *job) microColl() {
	gen := func(n int) timed {
		var err error
		return func(reps int) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < reps; i++ {
				for _, a := range []coll.Algo{coll.AlgoRecDbl, coll.AlgoRing} {
					if _, e := coll.Allreduce(a, 1, n); e != nil {
						err = e
					}
				}
			}
			return time.Since(start), err
		}
	}
	j.micro("coll.gen_allreduce_n4_ns", ns, gen(ranks))
	j.micro("coll.gen_allreduce_n64_ns", ns, gen(j.sz.BigWorld))

	var policy coll.Policy
	small, err := coll.Allreduce(policy.Select(coll.OpAllreduce, 8, ranks), 0, ranks)
	if err != nil {
		j.check(false, "coll: %v", err)
		return
	}
	j.sample("coll.rounds_allreduce_8B", float64(len(small.Rounds)))

	bytesN := j.sz.ReduceBytes
	algo := policy.Select(coll.OpAllreduce, bytesN, ranks)
	scheds := make([]*coll.Schedule, ranks)
	msgs := 0
	for r := range scheds {
		if scheds[r], err = coll.Allreduce(algo, r, ranks); err != nil {
			j.check(false, "coll: %v", err)
			return
		}
		for _, round := range scheds[r].Rounds {
			for _, st := range round {
				if st.Op == coll.OpSend {
					msgs++
				}
			}
		}
	}
	j.sample("coll.msgs_allreduce_1MiB", float64(msgs))

	// One operation is all 4 ranks executing their schedule over the
	// in-memory world; workers persist across operations.
	w := newMemWorld(ranks)
	vecs := make([][]byte, ranks)
	for r := range vecs {
		vecs[r] = fmi.Int64Bytes(reduceVector(r, bytesN/8))
	}
	start := make([]chan struct{}, ranks)
	done := make(chan error, ranks)
	sum := fmi.SumInt64()
	var last []byte
	for r := 0; r < ranks; r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				blocks := coll.SplitChunks(append([]byte(nil), vecs[r]...), scheds[r].Blocks)
				err := coll.Exec(scheds[r], memRank{w, r}, blocks, coll.ReduceFn(sum))
				if r == 0 && err == nil {
					last = coll.JoinChunks(blocks)
				}
				done <- err
			}
		}(r)
	}
	j.micro("coll.exec_allreduce_1MiB_us", nsToUs, func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for _, ch := range start {
				ch <- struct{}{}
			}
			for range start {
				if err := <-done; err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	})
	for _, ch := range start {
		close(ch)
	}
	j.check(len(last) == bytesN && closedForm(last, 0, bytesN/8), "coll.exec_allreduce_1MiB_us: result is not the closed-form sum")
}

// ringGroup is a ckpt.GroupComm for member self of a group whose
// members are the endpoints of one chan network, with pooled frames.
type ringGroup struct {
	eps  []transport.Endpoint
	ms   []*transport.Matcher
	self int
	pool *bufpool.Arena
}

func (g *ringGroup) Send(peer int, data []byte) error {
	return g.eps[g.self].Send(g.eps[peer].Addr(), transport.Msg{Src: int32(g.self), Tag: 1, Data: data})
}

func (g *ringGroup) Recv(peer int) ([]byte, error) {
	msg, err := g.ms[g.self].Recv(0, int32(peer), 1, nil)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}

func (g *ringGroup) Release(buf []byte) { g.pool.Put(buf) }

func (j *job) microCkpt(pool *bufpool.Arena) {
	const g = 4
	size := 2 << 20
	if j.req.Smoke {
		size = 64 << 10
	}
	seg := make([]byte, size)
	j.rng.Read(seg)
	segs := [][]byte{seg}
	capBuf := make([]byte, size)
	var snap *ckpt.Snapshot
	j.micro("ckpt.capture_MBps", perSec(size), loop(func() { snap = ckpt.CaptureInto(0, segs, capBuf) }))
	into := [][]byte{make([]byte, size)}
	var err error
	j.micro("ckpt.restore_MBps", perSec(size), loop(func() {
		if e := snap.Restore(into); e != nil {
			err = e
		}
	}))
	j.check(err == nil && bytes.Equal(into[0], seg), "ckpt: restore does not give back the captured segment (%v)", err)
	dst := make([]byte, size)
	j.micro("erasure.xor_MBps", perSec(size), loop(func() { ckpt.XorInto(dst, seg) }))

	code, err := erasure.New(4, 2)
	if err != nil {
		j.check(false, "erasure: %v", err)
		return
	}
	data := make([][]byte, 4)
	for i := range data {
		data[i] = seg[i*size/4 : (i+1)*size/4]
	}
	parity := [][]byte{make([]byte, size/4), make([]byte, size/4)}
	j.micro("erasure.rs_encode_MBps", perSec(size), loop(func() { code.EncodeStriped(data, parity, 0) }))

	// The g=4 ring XOR over chan endpoints, 2 MiB per member. One
	// operation is the whole group's encode, or the whole group's
	// reconstruction of member 1; workers persist across operations.
	nw := transport.NewChanNetwork(transport.Options{Pool: pool})
	grp := ringGroup{pool: pool}
	for i := 0; i < g; i++ {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			j.check(false, "ckpt ring: %v", err)
			return
		}
		defer ep.Close()
		m := transport.NewMatcher(ep)
		defer m.Close()
		grp.eps, grp.ms = append(grp.eps, ep), append(grp.ms, m)
	}
	member := make([][]byte, g)
	for i := range member {
		member[i] = make([]byte, size)
		j.rng.Read(member[i])
	}
	coder := ckpt.NewCoder(1, 0)
	chunkLen := coder.ChunkLen(size, g)
	parities := make([][]byte, g)
	const lost = 1
	var rebuilt []byte
	type cmd int
	const (
		encode cmd = iota
		decode
	)
	start := make([]chan cmd, g)
	done := make(chan error, g)
	for i := 0; i < g; i++ {
		start[i] = make(chan cmd)
		go func(i int) {
			gc := grp
			gc.self = i
			for c := range start[i] {
				var err error
				switch {
				case c == encode:
					if parities[i] != nil {
						pool.Put(parities[i])
					}
					parities[i], err = coder.Encode(&gc, i, g, member[i], chunkLen)
				case i == lost:
					rebuilt, err = coder.Reconstruct(&gc, i, g, []int{lost}, nil, nil, chunkLen)
				default:
					_, err = coder.Reconstruct(&gc, i, g, []int{lost}, member[i], parities[i], chunkLen)
				}
				done <- err
			}
		}(i)
	}
	group := func(c cmd) timed {
		return func(n int) (time.Duration, error) {
			t0 := time.Now()
			for r := 0; r < n; r++ {
				for _, ch := range start {
					ch <- c
				}
				for range start {
					if err := <-done; err != nil {
						return 0, err
					}
				}
			}
			return time.Since(t0), nil
		}
	}
	j.micro("ckpt.encode_ms", nsToMs, group(encode))
	const reps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = group(encode)(reps)
	runtime.ReadMemStats(&after)
	j.check(err == nil, "ckpt.encode_allocs: %v", err)
	j.sample("ckpt.encode_allocs", float64(after.Mallocs-before.Mallocs)/reps)
	j.micro("ckpt.decode_ms", nsToMs, group(decode))
	j.check(len(rebuilt) >= size && bytes.Equal(rebuilt[:size], member[lost]), "ckpt.decode_ms: the rebuilt checkpoint differs from the lost one")
	for _, ch := range start {
		close(ch)
	}
}

func (j *job) microMsglog() {
	buf := make([]byte, j.sz.MidBytes)
	acked := make([]uint64, ranks)
	l := msglog.New(ranks)
	j.micro("msglog.record_ns", ns, func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			acked[1] = l.Record(1, 0, 1, transport.KindUser, buf)
		}
		el := time.Since(start)
		l.Trim(acked)
		return el, nil
	})
	// Per entry trimmed.
	small := make([]byte, 64)
	j.micro("msglog.trim_ns", ns, func(n int) (time.Duration, error) {
		for i := 0; i < n; i++ {
			acked[1] = l.Record(1, 0, 1, transport.KindUser, small)
		}
		start := time.Now()
		l.Trim(acked)
		return time.Since(start), nil
	})
	// One After call against a log of 64 entries, half of them wanted.
	var mid uint64
	for i := 0; i < 64; i++ {
		if seq := l.Record(2, 0, 1, transport.KindUser, small); i == 31 {
			mid = seq
		}
	}
	got := 0
	j.micro("msglog.after_ns", ns, loop(func() { got = len(l.After(2, mid)) }))
	j.check(got == 32, "msglog.after_ns: %d entries after the 32nd of 64", got)
}

// microBootstrap times the H1 tree exchange and the H2 log-ring build
// over a chan network of BigWorld endpoints.
func (j *job) microBootstrap() {
	n := j.sz.BigWorld
	nw := transport.NewChanNetwork(transport.Options{DetectDelay: detectDelay, PropDelay: propDelay, Endpoints: n})
	eps := make([]transport.Endpoint, n)
	ms := make([]*transport.Matcher, n)
	table := make([]transport.Addr, n)
	for i := range eps {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			j.check(false, "bootstrap: %v", err)
			return
		}
		defer ep.Close()
		eps[i], ms[i], table[i] = ep, transport.NewMatcher(ep), ep.Addr()
		defer ms[i].Close()
	}
	each := func(f func(i int) error) error {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = f(i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	coord := bootstrap.NewCoordinator()
	round := 0
	msgs := make([]int, n)
	j.micro("bootstrap.tree_exchange_ms", nsToMs, func(reps int) (time.Duration, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			round++
			key := fmt.Sprintf("bench/%d", round)
			err := each(func(i int) error {
				tbl, cost, err := bootstrap.TreeExchange(bootstrap.Proc{Rank: i, N: n, Addr: table[i], EP: eps[i], M: ms[i], Coord: coord, Key: key})
				if err == nil && len(tbl) != n {
					err = fmt.Errorf("table of %d, want %d", len(tbl), n)
				}
				msgs[i] = cost.ProcMsgs
				return err
			})
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
	total := 0
	for _, m := range msgs {
		total += m
	}
	j.sample("bootstrap.msgs", float64(total))

	rings := make([]*overlay.Ring, n)
	j.micro("overlay.build_ms", nsToMs, func(reps int) (time.Duration, error) {
		var el time.Duration
		for r := 0; r < reps; r++ {
			start := time.Now()
			err := each(func(i int) (err error) {
				rings[i], err = overlay.Build(eps[i], i, table, 2)
				return err
			})
			el += time.Since(start)
			for _, ring := range rings {
				if ring != nil {
					ring.Shutdown()
				}
			}
			if err != nil {
				return 0, err
			}
		}
		return el, nil
	})
	j.sample("overlay.notify_hops", float64(overlay.NotifyHops(n, 2, 0)))
}

// microLaunch is fmi.Run to every rank past its first Loop: launch,
// bootstrap H1-H3 and the initial checkpoint.
func (j *job) microLaunch() {
	launch := func(name string, n int) {
		cfg := baseConfig(j.suite)
		cfg.Ranks, cfg.ProcsPerNode, cfg.CheckpointInterval = n, 1, 1<<30
		for rep := 0; rep < max(3, j.sz.MicroN/4); rep++ {
			var mu sync.Mutex
			var last time.Time
			start := time.Now()
			_, err := fmi.Run(cfg, func(env *fmi.Env) error {
				env.Loop(make([]byte, 8))
				now := time.Now()
				mu.Lock()
				if now.After(last) {
					last = now
				}
				mu.Unlock()
				return env.Finalize()
			})
			if err != nil {
				j.check(false, "%s: %v", name, err)
				return
			}
			j.sample(name, ms(last.Sub(start)))
		}
	}
	launch("runtime.launch_4_ms", ranks)
	launch("runtime.launch_64_ms", j.sz.BigWorld)
}

func (j *job) microTrace() {
	j.micro("trace.add_ns", ns, func(n int) (time.Duration, error) {
		rec := trace.New() // a fresh recorder per batch, so that its event slice does not grow without bound
		start := time.Now()
		for i := 0; i < n; i++ {
			rec.Add(trace.KindCheckpoint, 0, 0, "checkpoint %d", i)
		}
		return time.Since(start), nil
	})
}

// microHimeno is the plain single-rank run of the same grid: the
// baseline no messaging layer takes part in.
func (j *job) microHimeno() {
	s, err := himeno.New(0, 1, j.sz.NX, j.sz.NY, j.sz.NZ)
	if err != nil {
		j.check(false, "himeno: %v", err)
		return
	}
	flops := float64(s.InteriorPoints()) * himeno.FlopsPerPoint
	for i := 0; i < max(3, j.sz.MicroN/2); i++ {
		start := time.Now()
		s.Jacobi()
		j.sample("himeno.single_rank_mflops", flops/time.Since(start).Seconds()/1e6)
	}
}
