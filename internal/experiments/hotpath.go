package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"text/tabwriter"

	"fmi/internal/bufpool"
	"fmi/internal/ckpt"
	"fmi/internal/enc"
	"fmi/internal/transport"
)

// Hot-path allocation benchmark (perf ablation): measures ns/op, B/op
// and allocs/op for the paths the buffer arena threads through — the
// chan-transport send/recv roundtrip over the per-pair ring (unplaced
// and placed endpoints: one link, so the two rows should agree), a
// flood that keeps parking on a short ring, matcher ingress under
// multi-sender contention, collective slice packing, and checkpoint
// capture + encode — with pooling on and off. The headline acceptance
// numbers are the allocs/op reduction pooling buys on the send and
// checkpoint paths.

// HotpathConfig sizes the three benchmarks.
type HotpathConfig struct {
	PayloadBytes     int `json:"payload_bytes"`       // chan-send message size
	PackParts        int `json:"pack_parts"`          // slices per packed frame
	PackPartBytes    int `json:"pack_part_bytes"`     // bytes per packed slice
	GroupSize        int `json:"group_size"`          // XOR group size for ckpt-encode
	CkptBytesPerRank int `json:"ckpt_bytes_per_rank"` // snapshot size per member
}

// DefaultHotpathConfig mirrors a mid-size collective/checkpoint load:
// 16 KiB eager messages, 8-part packed frames, a 4-member XOR group
// checkpointing 1 MiB per rank.
func DefaultHotpathConfig() HotpathConfig {
	return HotpathConfig{
		PayloadBytes:     16 << 10,
		PackParts:        8,
		PackPartBytes:    2 << 10,
		GroupSize:        4,
		CkptBytesPerRank: 1 << 20,
	}
}

// HotpathPoint is one (path, pooling) cell of the sweep.
type HotpathPoint struct {
	Path        string  `json:"path"`
	Pooling     bool    `json:"pooling"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func point(path string, pooling bool, r testing.BenchmarkResult) HotpathPoint {
	return HotpathPoint{
		Path:        path,
		Pooling:     pooling,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// pointN is point for benchmarks whose op covers perOp messages; the
// cell is normalised to per-message cost.
func pointN(path string, pooling bool, r testing.BenchmarkResult, perOp int) HotpathPoint {
	return HotpathPoint{
		Path:        path,
		Pooling:     pooling,
		NsPerOp:     float64(r.NsPerOp()) / float64(perOp),
		BytesPerOp:  r.AllocedBytesPerOp() / int64(perOp),
		AllocsPerOp: r.AllocsPerOp() / int64(perOp),
	}
}

// HotpathSweep runs every (path, pooling) combination and returns the
// six cells. Pooling off is expressed the way the runtime expresses it:
// a nil arena, so the measured path is byte-for-byte the production
// code in both modes.
func HotpathSweep(cfg HotpathConfig) ([]HotpathPoint, error) {
	var out []HotpathPoint
	for _, pooling := range []bool{false, true} {
		var pool *bufpool.Arena
		if pooling {
			pool = bufpool.New()
		}
		r, err := benchSend(cfg.PayloadBytes, pool, false)
		if err != nil {
			return nil, err
		}
		out = append(out, point("chan-send", pooling, r))

		r, err = benchSend(cfg.PayloadBytes, pool, true)
		if err != nil {
			return nil, err
		}
		out = append(out, point("ring-send", pooling, r))

		r, err = benchBatchedSend(cfg.PackPartBytes, pool)
		if err != nil {
			return nil, err
		}
		out = append(out, point("batched-send", pooling, r))

		r, err = benchMatcherContention(cfg.PackPartBytes, pool)
		if err != nil {
			return nil, err
		}
		out = append(out, pointN("matcher-contention", pooling, r, contentionSenders))

		out = append(out, point("coll-pack", pooling, benchPack(cfg.PackParts, cfg.PackPartBytes, pooling)))

		r, err = benchCkptEncode(cfg.GroupSize, cfg.CkptBytesPerRank, pool)
		if err != nil {
			return nil, err
		}
		out = append(out, point("ckpt-encode", pooling, r))
	}
	return out, nil
}

// benchSend measures one eager send + matched receive + release over
// the in-process transport, the inner loop of every p2p exchange and
// collective round. The receive drains the pair's ring inline — no
// demux goroutine hand-off on the critical path. placed puts both
// endpoints on one node (the ring-send row); the link is the same
// either way.
func benchSend(payload int, pool *bufpool.Arena, placed bool) (testing.BenchmarkResult, error) {
	nw := transport.NewChanNetwork(transport.Options{Pool: pool, Endpoints: 2})
	node := -1
	if placed {
		node = 0
	}
	src, err := nw.NewEndpointOnNode(node, nil)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	dst, err := nw.NewEndpointOnNode(node, nil)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	m := transport.NewMatcher(dst)
	defer func() { m.Close(); dst.Close(); src.Close() }()
	buf := make([]byte, payload)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := src.Send(dst.Addr(), transport.Msg{Src: 0, Tag: 1, Data: buf}); err != nil {
				benchErr = err
				return
			}
			msg, err := m.Recv(0, 0, 1, nil)
			if err != nil {
				benchErr = err
				return
			}
			msg.Release()
		}
	})
	return res, benchErr
}

// benchBatchedSend measures per-message cost of a sustained small-frame
// flood over a deliberately short (16-slot) ring: the producer outruns
// the consumer and keeps parking on the full ring, so the row prices
// the block/bell/wake cycle. (The row name predates the removal of
// send-side batching; it is kept so BENCH_hotpath.json stays
// comparable across commits.)
func benchBatchedSend(payload int, pool *bufpool.Arena) (testing.BenchmarkResult, error) {
	nw := transport.NewChanNetwork(transport.Options{Pool: pool, Endpoints: 2, RingSlots: 16})
	src, err := nw.NewEndpointOnNode(0, nil)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	dst, err := nw.NewEndpointOnNode(0, nil)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	m := transport.NewMatcher(dst)
	defer func() { m.Close(); dst.Close(); src.Close() }()
	buf := make([]byte, payload)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		sendErr := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if err := src.Send(dst.Addr(), transport.Msg{Src: 0, Tag: 1, Data: buf}); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		for i := 0; i < b.N; i++ {
			msg, err := m.Recv(0, 0, 1, nil)
			if err != nil {
				benchErr = err
				return
			}
			msg.Release()
		}
		if err := <-sendErr; err != nil {
			benchErr = err
		}
	})
	return res, benchErr
}

// contentionSenders is the sender fan-in for the matcher-contention
// row: one benchmark op is one message from each sender.
const contentionSenders = 8

// benchMatcherContention measures matcher ingress with 8 concurrent
// senders feeding one receiver, the shape a rank sees at the peak of
// an all-to-all round. Per-source lanes keep the senders from
// serialising on a single ingress mutex; the receiver drains the
// lanes round-robin.
func benchMatcherContention(payload int, pool *bufpool.Arena) (testing.BenchmarkResult, error) {
	nw := transport.NewChanNetwork(transport.Options{Pool: pool, Endpoints: contentionSenders + 1})
	dst, err := nw.NewEndpoint(nil)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	srcs := make([]transport.Endpoint, contentionSenders)
	for i := range srcs {
		if srcs[i], err = nw.NewEndpoint(nil); err != nil {
			return testing.BenchmarkResult{}, err
		}
	}
	m := transport.NewMatcher(dst)
	defer func() {
		m.Close()
		dst.Close()
		for _, s := range srcs {
			s.Close()
		}
	}()
	buf := make([]byte, payload)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		sendErr := make(chan error, contentionSenders)
		for s := 0; s < contentionSenders; s++ {
			go func(s int) {
				for i := 0; i < b.N; i++ {
					if err := srcs[s].Send(dst.Addr(), transport.Msg{Src: int32(s), Tag: 1, Data: buf}); err != nil {
						sendErr <- err
						return
					}
				}
				sendErr <- nil
			}(s)
		}
		// One op = one message from every sender; drain round-robin so
		// each lane's unexpected queue stays bounded.
		for i := 0; i < b.N; i++ {
			for s := 0; s < contentionSenders; s++ {
				msg, err := m.Recv(0, int32(s), 1, nil)
				if err != nil {
					benchErr = err
					return
				}
				msg.Release()
			}
		}
		for s := 0; s < contentionSenders; s++ {
			if err := <-sendErr; err != nil && benchErr == nil {
				benchErr = err
			}
		}
	})
	return res, benchErr
}

// benchPack measures multi-block schedule-step framing: PackSlices
// (fresh buffer per call) against PackSlicesInto over a reused scratch
// buffer, which is how the collective engine packs when pooling is on.
func benchPack(parts, partBytes int, pooled bool) testing.BenchmarkResult {
	ps := make([][]byte, parts)
	for i := range ps {
		ps[i] = make([]byte, partBytes)
	}
	scratch := make([]byte, 0, enc.PackedLen(ps))
	var sink byte
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pooled {
				scratch = enc.PackSlicesInto(scratch[:0], ps)
				sink ^= scratch[0]
			} else {
				out := enc.PackSlices(ps)
				sink ^= out[0]
			}
		}
	})
	_ = sink
	return res
}

// pooledGC is a ckpt.GroupComm over a pooled ring world that recycles
// consumed ring chunks, the way the runtime's groupComm does.
type pooledGC struct {
	wgc
	pool *bufpool.Arena
}

func (g *pooledGC) Release(buf []byte) { g.pool.Put(buf) }

// benchCkptEncode measures one full group checkpoint — capture memcpy
// plus the collective XOR encode ring — across all g members. Workers
// are persistent so the measurement is the checkpoint itself, not
// goroutine churn.
func benchCkptEncode(g, bytesPerRank int, pool *bufpool.Arena) (testing.BenchmarkResult, error) {
	nw := transport.NewChanNetwork(transport.Options{Pool: pool})
	w := &ringWorld{}
	for i := 0; i < g; i++ {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		w.eps = append(w.eps, ep)
		w.ms = append(w.ms, transport.NewMatcher(ep))
	}
	defer w.close()
	members := make([]int, g)
	data := make([][]byte, g)
	for i := range members {
		members[i] = i
		data[i] = make([]byte, bytesPerRank)
		for j := 0; j < bytesPerRank; j += 4096 {
			data[i][j] = byte(i*37 + j)
		}
	}
	coder := ckpt.NewCoder(1, 0)
	chunkLen := coder.ChunkLen(bytesPerRank, g)

	start := make([]chan struct{}, g)
	done := make(chan error, g)
	for i := 0; i < g; i++ {
		start[i] = make(chan struct{})
		go func(i int) {
			var gc ckpt.GroupComm
			base := wgc{w: w, self: i, members: members, meIdx: i, tag: 1}
			if pool != nil {
				gc = &pooledGC{wgc: base, pool: pool}
			} else {
				gc = &base
			}
			segs := [][]byte{data[i]}
			for range start[i] {
				var snap *ckpt.Snapshot
				if pool != nil {
					snap = ckpt.CaptureInto(0, segs, pool.Get(ckpt.TotalSize(segs)))
				} else {
					snap = ckpt.Capture(0, segs)
				}
				parity, err := coder.Encode(gc, i, g, snap.Data, chunkLen)
				if pool != nil {
					pool.Put(parity)
					pool.Put(snap.Data)
				}
				done <- err
			}
		}(i)
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, ch := range start {
				ch <- struct{}{}
			}
			for j := 0; j < g; j++ {
				if err := <-done; err != nil && benchErr == nil {
					benchErr = err
				}
			}
			if benchErr != nil {
				return
			}
		}
	})
	for _, ch := range start {
		close(ch)
	}
	return res, benchErr
}

// HotpathReductions returns, per path, the fraction of allocs/op that
// pooling removes (0.5 = half the allocations gone).
func HotpathReductions(rows []HotpathPoint) map[string]float64 {
	off := map[string]int64{}
	on := map[string]int64{}
	for _, r := range rows {
		if r.Pooling {
			on[r.Path] = r.AllocsPerOp
		} else {
			off[r.Path] = r.AllocsPerOp
		}
	}
	red := map[string]float64{}
	for path, base := range off {
		if base <= 0 {
			red[path] = 0
			continue
		}
		red[path] = 1 - float64(on[path])/float64(base)
	}
	return red
}

// hotpathReport is the BENCH_hotpath.json schema.
type hotpathReport struct {
	Experiment string             `json:"experiment"`
	Config     HotpathConfig      `json:"config"`
	Results    []HotpathPoint     `json:"results"`
	Reductions map[string]float64 `json:"allocs_reduction"`
}

// HotpathJSON renders the sweep as the BENCH_hotpath.json document.
func HotpathJSON(cfg HotpathConfig, rows []HotpathPoint) ([]byte, error) {
	doc, err := json.MarshalIndent(hotpathReport{
		Experiment: "hotpath",
		Config:     cfg,
		Results:    rows,
		Reductions: HotpathReductions(rows),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// PrintHotpath renders the sweep as a table plus the per-path
// allocation reductions.
func PrintHotpath(w io.Writer, cfg HotpathConfig, rows []HotpathPoint) {
	fmt.Fprintf(w, "Hot-path allocation benchmark (payload %d B, %d x %d B pack, group %d x %d B ckpt)\n",
		cfg.PayloadBytes, cfg.PackParts, cfg.PackPartBytes, cfg.GroupSize, cfg.CkptBytesPerRank)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "path\tpooling\tns/op\tB/op\tallocs/op")
	for _, r := range rows {
		mode := "off"
		if r.Pooling {
			mode = "on"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%d\t%d\n", r.Path, mode, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	tw.Flush()
	for _, path := range []string{"chan-send", "ring-send", "batched-send", "matcher-contention", "coll-pack", "ckpt-encode"} {
		if red, ok := HotpathReductions(rows)[path]; ok {
			fmt.Fprintf(w, "%s: pooling removes %.0f%% of allocs/op\n", path, red*100)
		}
	}
}
