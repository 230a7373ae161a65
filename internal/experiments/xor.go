// Package experiments implements the benchmark harness that
// regenerates every table and figure of the paper's evaluation
// (§VI). Each experiment returns typed rows plus a printer, so the
// fmibench/fmimodel commands and the root bench_test.go share one
// implementation. Data sizes are scaled down from the paper's 6
// GB/node (this substrate is a laptop, not Sierra); the *shape* of
// each result is what is reproduced, and the paper-scale analytic
// model values are printed alongside for comparison.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"fmi/internal/ckpt"
	"fmi/internal/model"
	"fmi/internal/transport"
)

// ringWorld wires n participants over a chan network for raw XOR ring
// experiments (no full runtime: this isolates exactly the quantities
// of Figs 10-12).
type ringWorld struct {
	eps []transport.Endpoint
	ms  []*transport.Matcher
}

func newRingWorld(n int) (*ringWorld, error) {
	nw := transport.NewChanNetwork(transport.Options{})
	w := &ringWorld{}
	for i := 0; i < n; i++ {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			return nil, err
		}
		w.eps = append(w.eps, ep)
		w.ms = append(w.ms, transport.NewMatcher(ep))
	}
	return w, nil
}

func (w *ringWorld) close() {
	for i := range w.eps {
		w.ms[i].Close()
		w.eps[i].Close()
	}
}

// wgc is a ckpt.GroupComm over the ring world for one member. It
// times a rebuild's phases (ckpt.PhaseTimer): decodedAt is when this
// member's decode ended.
type wgc struct {
	w         *ringWorld
	self      int   // global index of this member
	members   []int // global indices of the group, in group order
	meIdx     int   // my index within members
	tag       int32
	decodedAt time.Time
}

// DecodeDone implements ckpt.PhaseTimer.
func (g *wgc) DecodeDone() { g.decodedAt = time.Now() }

func (g *wgc) Send(peer int, data []byte) error {
	return g.w.eps[g.self].Send(g.w.eps[g.members[peer]].Addr(), transport.Msg{
		Src: int32(g.self), Tag: g.tag, Data: data,
	})
}

func (g *wgc) Recv(peer int) ([]byte, error) {
	msg, err := g.w.ms[g.self].Recv(0, int32(g.members[peer]), g.tag, nil)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}

// XORPoint is one row of Figs 10/11: measured checkpoint and restart
// times for a group size, with the paper-scale model values (Sierra
// bandwidths, 6 GB/node) alongside.
type XORPoint struct {
	GroupSize        int
	MemcpySeconds    float64 // capture memcpy
	EncodeSeconds    float64 // ring communication + XOR
	CheckpointTotal  float64
	DecodeSeconds    float64 // decode ring, slowest member
	GatherSeconds    float64 // replacement's chain gather + restore memcpy
	RestartTotal     float64
	ModelCkptSierra  float64 // §V-B model at 6 GB/node on Sierra
	ModelRestSierra  float64
	BytesPerRank     int
	ParityOverheadPc float64
}

// XORGroupSweep measures in-memory XOR checkpoint and restart against
// group size (Figs 10 and 11). bytesPerRank is the per-rank checkpoint
// size (the paper used 6 GB/node).
func XORGroupSweep(groupSizes []int, bytesPerRank int) ([]XORPoint, error) {
	var out []XORPoint
	sierra := model.Sierra()
	for _, g := range groupSizes {
		w, err := newRingWorld(g)
		if err != nil {
			return nil, err
		}
		members := make([]int, g)
		for i := range members {
			members[i] = i
		}
		data := make([][]byte, g)
		for i := range data {
			data[i] = make([]byte, bytesPerRank)
			for j := 0; j < bytesPerRank; j += 4096 {
				data[i][j] = byte(i*31 + j)
			}
		}
		chunkLen := ckpt.ChunkLen(bytesPerRank, g)

		// --- Checkpoint (Fig 10): capture memcpy + encode ring.
		var mu sync.Mutex
		var memcpyMax, encodeMax float64
		parities := make([][]byte, g)
		snaps := make([]*ckpt.Snapshot, g)
		var wg sync.WaitGroup
		ckptStart := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				snap := ckpt.Capture(0, [][]byte{data[i]})
				t1 := time.Now()
				gc := &wgc{w: w, self: i, members: members, meIdx: i, tag: 1}
				parity, err := ckpt.EncodeRing(gc, i, g, snap.Data, chunkLen)
				t2 := time.Now()
				if err != nil {
					return
				}
				mu.Lock()
				snaps[i], parities[i] = snap, parity
				if d := t1.Sub(t0).Seconds(); d > memcpyMax {
					memcpyMax = d
				}
				if d := t2.Sub(t1).Seconds(); d > encodeMax {
					encodeMax = d
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		ckptTotal := time.Since(ckptStart).Seconds()

		// --- Restart (Fig 11): lose member 0; the group runs the
		// coder's rebuild (decode, then the replacement gathers), and
		// the replacement restores the rebuilt checkpoint.
		const lost = 0
		var decodeMax, gatherSec float64
		restartStart := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				gc := &wgc{w: w, self: i, members: members, meIdx: i, tag: 2}
				t0 := time.Now()
				var mine, parity []byte
				if i != lost {
					mine, parity = snaps[i].Data, parities[i]
				}
				rebuilt, _, err := ckpt.XORRing{}.Rebuild(gc, i, g, []int{lost}, mine, parity, chunkLen)
				if err != nil {
					return
				}
				decode := gc.decodedAt.Sub(t0).Seconds()
				if i == lost {
					// Restore memcpy back into the application segment.
					seg := make([]byte, bytesPerRank)
					snap := ckpt.FromData(0, rebuilt[:bytesPerRank], []int{bytesPerRank})
					if err := snap.Restore([][]byte{seg}); err != nil {
						return
					}
				}
				mu.Lock()
				if decode > decodeMax {
					decodeMax = decode
				}
				if i == lost {
					gatherSec = time.Since(gc.decodedAt).Seconds()
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		restartTotal := time.Since(restartStart).Seconds()
		w.close()

		out = append(out, XORPoint{
			GroupSize:        g,
			MemcpySeconds:    memcpyMax,
			EncodeSeconds:    encodeMax,
			CheckpointTotal:  ckptTotal,
			DecodeSeconds:    decodeMax,
			GatherSeconds:    gatherSec,
			RestartTotal:     restartTotal,
			ModelCkptSierra:  model.XORCheckpointTime(6e9, g, sierra.MemBW, sierra.NetBW),
			ModelRestSierra:  model.XORRestartTime(6e9, g, sierra.MemBW, sierra.NetBW),
			BytesPerRank:     bytesPerRank,
			ParityOverheadPc: model.ParityOverhead(g) * 100,
		})
	}
	return out, nil
}

// PrintFig10 prints the checkpoint-time sweep.
func PrintFig10(w io.Writer, rows []XORPoint) {
	fmt.Fprintf(w, "Fig 10: XOR checkpoint time vs group size (measured at %s/rank; model at 6 GB/node on Sierra)\n",
		fmtBytes(rows[0].BytesPerRank))
	fmt.Fprintf(w, "%8s %12s %12s %12s %14s %10s\n", "group", "memcpy(s)", "encode(s)", "total(s)", "model-6GB(s)", "parity%")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.4f %12.4f %12.4f %14.2f %10.1f\n",
			r.GroupSize, r.MemcpySeconds, r.EncodeSeconds, r.CheckpointTotal, r.ModelCkptSierra, r.ParityOverheadPc)
	}
}

// PrintFig11 prints the restart-time sweep.
func PrintFig11(w io.Writer, rows []XORPoint) {
	fmt.Fprintf(w, "Fig 11: XOR restart time vs group size (measured at %s/rank; model at 6 GB/node on Sierra)\n",
		fmtBytes(rows[0].BytesPerRank))
	fmt.Fprintf(w, "%8s %12s %12s %12s %14s\n", "group", "decode(s)", "gather(s)", "total(s)", "model-6GB(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12.4f %12.4f %12.4f %14.2f\n",
			r.GroupSize, r.DecodeSeconds, r.GatherSeconds, r.RestartTotal, r.ModelRestSierra)
	}
}

// ThroughputPoint is one row of Fig 12.
type ThroughputPoint struct {
	Procs          int
	CkptSeconds    float64
	RestartSeconds float64
	CkptGBps       float64
	RestartGBps    float64
	BytesPerRank   int
}

// CRThroughputSweep measures aggregate checkpoint/restart throughput
// against process count (Fig 12): every XOR group encodes in parallel;
// for restart every group loses one member and decodes in parallel.
func CRThroughputSweep(procCounts []int, groupSize, bytesPerRank int) ([]ThroughputPoint, error) {
	var out []ThroughputPoint
	for _, n := range procCounts {
		w, err := newRingWorld(n)
		if err != nil {
			return nil, err
		}
		groups, gidx := ckpt.Groups(n, 1, groupSize)
		data := make([][]byte, n)
		for i := range data {
			data[i] = make([]byte, bytesPerRank)
			for j := 0; j < bytesPerRank; j += 4096 {
				data[i][j] = byte(i + j)
			}
		}
		parities := make([][]byte, n)
		snaps := make([]*ckpt.Snapshot, n)
		chunkOf := func(r int) int { return ckpt.ChunkLen(bytesPerRank, len(groups[r])) }

		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				snap := ckpt.Capture(0, [][]byte{data[i]})
				gc := &wgc{w: w, self: i, members: groups[i], meIdx: gidx[i], tag: 1}
				parity, err := ckpt.EncodeRing(gc, gidx[i], len(groups[i]), snap.Data, chunkOf(i))
				if err != nil {
					return
				}
				snaps[i], parities[i] = snap, parity
			}(i)
		}
		wg.Wait()
		ckptSec := time.Since(start).Seconds()

		// Restart: group-local member 0 of every group is "lost".
		start = time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g := len(groups[i])
				if g < 2 {
					return
				}
				gi := gidx[i]
				cl := chunkOf(i)
				gc := &wgc{w: w, self: i, members: groups[i], meIdx: gi, tag: 2}
				const lost = 0
				var mine, parity []byte
				if gi != lost {
					mine, parity = snaps[i].Data, parities[i]
				}
				rebuilt, _, err := ckpt.XORRing{}.Rebuild(gc, gi, g, []int{lost}, mine, parity, cl)
				if err != nil || gi != lost {
					return
				}
				seg := make([]byte, bytesPerRank)
				copy(seg, rebuilt[:bytesPerRank])
			}(i)
		}
		wg.Wait()
		restSec := time.Since(start).Seconds()
		w.close()

		total := float64(n) * float64(bytesPerRank)
		out = append(out, ThroughputPoint{
			Procs:       n,
			CkptSeconds: ckptSec, RestartSeconds: restSec,
			CkptGBps:     total / ckptSec / 1e9,
			RestartGBps:  total / restSec / 1e9,
			BytesPerRank: bytesPerRank,
		})
	}
	return out, nil
}

// CRThroughputSweepAggregate runs the Fig 12 sweep holding the
// aggregate checkpoint volume constant (per-rank size shrinks with
// process count), which is the honest framing on a single host whose
// memory bandwidth stands in for all the nodes' memories.
func CRThroughputSweepAggregate(procCounts []int, groupSize, aggregateBytes int) ([]ThroughputPoint, error) {
	var out []ThroughputPoint
	for _, n := range procCounts {
		per := aggregateBytes / n
		if per < 64<<10 {
			per = 64 << 10
		}
		rows, err := CRThroughputSweep([]int{n}, groupSize, per)
		if err != nil {
			return nil, err
		}
		out = append(out, rows[0])
	}
	return out, nil
}

// PrintFig12 prints the throughput sweep.
func PrintFig12(w io.Writer, rows []ThroughputPoint) {
	fmt.Fprintln(w, "Fig 12: C/R throughput vs process count (XOR group encode/decode)")
	fmt.Fprintf(w, "%8s %12s %12s %12s %14s %14s\n", "procs", "per-rank", "ckpt(s)", "restart(s)", "ckpt(GB/s)", "restart(GB/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12s %12.4f %12.4f %14.2f %14.2f\n",
			r.Procs, fmtBytes(r.BytesPerRank), r.CkptSeconds, r.RestartSeconds, r.CkptGBps, r.RestartGBps)
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
