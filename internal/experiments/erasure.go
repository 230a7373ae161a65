package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"fmi/internal/ckpt"
	"fmi/internal/erasure"
)

// ErasurePoint is one row of the redundancy sweep: distributed group
// encode and multi-loss recovery for one redundancy level m over a
// single checkpoint group (§VIII's proposed multi-failure extension).
type ErasurePoint struct {
	M              int // configured redundancy (losses tolerated)
	GroupSize      int
	K              int // data shards per stripe (g - m')
	Scheme         string
	EncodeSeconds  float64
	EncodeMBps     float64 // aggregate group data / encode time
	RecoverSeconds float64
	Losses         int // simultaneous losses repaired
	ParityBytes    int // per-rank parity held in memory
	OverheadPc     float64
	BytesPerRank   int
}

// ErasureSweep measures the redundancy trade-off: for each m, all g
// members of one group encode their checkpoints through the configured
// coder (ring-XOR for m=1, RS(k,m) for m>=2), then m members are
// declared lost and the group repairs them from the in-memory shards.
func ErasureSweep(ms []int, groupSize, bytesPerRank int) ([]ErasurePoint, error) {
	var out []ErasurePoint
	g := groupSize
	members := make([]int, g)
	for i := range members {
		members[i] = i
	}
	for _, m := range ms {
		coder := ckpt.NewCoder(m, 0)
		tol := coder.Tolerance(g)
		if tol < 1 {
			return nil, fmt.Errorf("experiments: group size %d gives tolerance 0 for m=%d", g, m)
		}
		w, err := newRingWorld(g)
		if err != nil {
			return nil, err
		}
		data := make([][]byte, g)
		for i := range data {
			data[i] = make([]byte, bytesPerRank)
			for j := 0; j < bytesPerRank; j += 512 {
				data[i][j] = byte(i*131 + j*7 + m)
			}
		}
		chunkLen := coder.ChunkLen(bytesPerRank, g)

		// --- Encode: every member runs the collective encode.
		parities := make([][]byte, g)
		errs := make([]error, g)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				gc := &wgc{w: w, self: i, members: members, meIdx: i, tag: 1}
				parities[i], errs[i] = coder.Encode(gc, i, g, data[i], chunkLen)
			}(i)
		}
		wg.Wait()
		encSec := time.Since(start).Seconds()
		for i, err := range errs {
			if err != nil {
				w.close()
				return nil, fmt.Errorf("experiments: encode m=%d member %d: %w", m, i, err)
			}
		}

		// --- Recover: members 0..tol-1 are lost; survivors contribute,
		// replacements rebuild their checkpoints and parity from the
		// surviving in-memory shards.
		lost := make([]int, tol)
		lostSet := map[int]bool{}
		for l := range lost {
			lost[l] = l
			lostSet[l] = true
		}
		start = time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				gc := &wgc{w: w, self: i, members: members, meIdx: i, tag: 2}
				if lostSet[i] {
					_, _, errs[i] = coder.Rebuild(gc, i, g, lost, nil, nil, chunkLen)
					return
				}
				_, _, errs[i] = coder.Rebuild(gc, i, g, lost, data[i], parities[i], chunkLen)
			}(i)
		}
		wg.Wait()
		recSec := time.Since(start).Seconds()
		w.close()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("experiments: recover m=%d member %d: %w", m, i, err)
			}
		}

		out = append(out, ErasurePoint{
			M: m, GroupSize: g, K: g - tol, Scheme: string(coder.Scheme()),
			EncodeSeconds:  encSec,
			EncodeMBps:     float64(g) * float64(bytesPerRank) / encSec / 1e6,
			RecoverSeconds: recSec, Losses: tol,
			ParityBytes:  len(parities[g-1]),
			OverheadPc:   float64(len(parities[g-1])) / float64(bytesPerRank) * 100,
			BytesPerRank: bytesPerRank,
		})
	}
	return out, nil
}

// PrintErasure prints the redundancy sweep.
func PrintErasure(w io.Writer, rows []ErasurePoint) {
	fmt.Fprintf(w, "Erasure: redundancy sweep, group of %d at %s/rank (m losses repaired from in-memory shards)\n",
		rows[0].GroupSize, fmtBytes(rows[0].BytesPerRank))
	fmt.Fprintf(w, "%4s %8s %4s %12s %12s %8s %12s %10s\n",
		"m", "scheme", "k", "encode(s)", "enc(MB/s)", "losses", "recover(s)", "parity%")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %8s %4d %12.4f %12.1f %8d %12.4f %10.1f\n",
			r.M, r.Scheme, r.K, r.EncodeSeconds, r.EncodeMBps, r.Losses, r.RecoverSeconds, r.OverheadPc)
	}
}

// KernelPoint compares the scalar and striped-parallel GF(2^8) encode
// kernels for one RS(k,m) geometry.
type KernelPoint struct {
	K, M         int
	Workers      int
	ScalarMBps   float64
	ParallelMBps float64
	SpeedupX     float64
}

// ErasureKernelBench times Code.Encode (one goroutine) against
// Code.EncodeStriped (GOMAXPROCS workers) over shardLen-byte shards for
// each (k,m) geometry, running each kernel for at least minDur.
func ErasureKernelBench(shardLen int, geometries [][2]int, minDur time.Duration) ([]KernelPoint, error) {
	workers := runtime.GOMAXPROCS(0)
	var out []KernelPoint
	for _, km := range geometries {
		k, m := km[0], km[1]
		code, err := erasure.New(k, m)
		if err != nil {
			return nil, err
		}
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, shardLen)
			for j := 0; j < shardLen; j += 128 {
				data[i][j] = byte(i + j)
			}
		}
		parity := make([][]byte, m)
		for j := range parity {
			parity[j] = make([]byte, shardLen)
		}
		measure := func(f func()) float64 {
			// Throughput of the data volume consumed per encode.
			iters, elapsed := 0, time.Duration(0)
			for elapsed < minDur {
				t0 := time.Now()
				f()
				elapsed += time.Since(t0)
				iters++
			}
			return float64(iters) * float64(k) * float64(shardLen) / elapsed.Seconds() / 1e6
		}
		scalar := measure(func() { code.Encode(data, parity) })
		par := measure(func() { code.EncodeStriped(data, parity, workers) })
		out = append(out, KernelPoint{
			K: k, M: m, Workers: workers,
			ScalarMBps: scalar, ParallelMBps: par, SpeedupX: par / scalar,
		})
	}
	return out, nil
}

// PrintErasureKernels prints the kernel comparison.
func PrintErasureKernels(w io.Writer, shardLen int, rows []KernelPoint) {
	fmt.Fprintf(w, "Erasure kernels: scalar vs striped-parallel GF(2^8) encode (%s shards, %d workers)\n",
		fmtBytes(shardLen), rows[0].Workers)
	fmt.Fprintf(w, "%10s %14s %14s %10s\n", "RS(k,m)", "scalar(MB/s)", "striped(MB/s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  RS(%2d,%d) %14.1f %14.1f %9.2fx\n", r.K, r.M, r.ScalarMBps, r.ParallelMBps, r.SpeedupX)
	}
}
