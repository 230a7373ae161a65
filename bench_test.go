// Benchmarks regenerating each table and figure of the paper's
// evaluation at laptop scale. One benchmark per exhibit; `go test
// -bench .` prints custom metrics matching the paper's units. For the
// full sweeps (all x-axis points, bigger sizes) use cmd/fmibench and
// cmd/fmimodel, which share the same implementations.
package fmi_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"fmi"
	"fmi/internal/experiments"
	"fmi/internal/failmodel"
	"fmi/internal/model"
	"fmi/internal/transport"
)

// --- Table I / Fig 1 / Table II: failure statistics and machine data.

func BenchmarkTable1FailureTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		types := failmodel.TSUBAME2Types()
		_ = failmodel.SingleNodeFraction(types)
		_ = failmodel.SystemMTBF(types)
	}
	b.ReportMetric(100*failmodel.SingleNodeFraction(failmodel.TSUBAME2Types()), "single-node-%")
}

func BenchmarkFig1FailureBreakdown(b *testing.B) {
	var sum float64
	for i := 0; i < b.N; i++ {
		sum = 0
		for _, c := range failmodel.TSUBAME2Components() {
			sum += c.RatePerSecE6
		}
	}
	b.ReportMetric(sum, "total-failures-per-sec-e6")
}

func BenchmarkTable2SierraModel(b *testing.B) {
	var ct float64
	for i := 0; i < b.N; i++ {
		s := model.Sierra()
		ct = model.XORCheckpointTime(6e9, 16, s.MemBW, s.NetBW)
	}
	b.ReportMetric(ct, "model-ckpt-sec-6GB-g16")
}

// --- Table III: ping-pong latency/bandwidth, FMI vs MPI baseline.

func BenchmarkTable3PingPongFMI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := experiments.PingPongFMI(transport.NewChanNetwork(transport.Options{}), "chan")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.LatencyUsec, "latency-usec")
		b.ReportMetric(row.BandwidthGBps, "bandwidth-GB/s")
	}
}

func BenchmarkTable3PingPongMPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := experiments.PingPongMPI(transport.NewChanNetwork(transport.Options{}), "chan")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.LatencyUsec, "latency-usec")
		b.ReportMetric(row.BandwidthGBps, "bandwidth-GB/s")
	}
}

// --- Figs 10/11: XOR checkpoint/restart vs group size.

func BenchmarkFig10XORCheckpoint(b *testing.B) {
	const bytesPerRank = 4 << 20
	var last experiments.XORPoint
	for i := 0; i < b.N; i++ {
		rows, err := experiments.XORGroupSweep([]int{16}, bytesPerRank)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(last.CheckpointTotal*1e3, "ckpt-ms-g16")
	b.ReportMetric(last.ModelCkptSierra, "model-sec-6GB")
}

func BenchmarkFig11XORRestart(b *testing.B) {
	const bytesPerRank = 4 << 20
	var last experiments.XORPoint
	for i := 0; i < b.N; i++ {
		rows, err := experiments.XORGroupSweep([]int{16}, bytesPerRank)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(last.RestartTotal*1e3, "restart-ms-g16")
	b.ReportMetric(last.ModelRestSierra, "model-sec-6GB")
}

// --- Fig 12: C/R throughput vs process count.

func BenchmarkFig12CRThroughput(b *testing.B) {
	var last experiments.ThroughputPoint
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CRThroughputSweep([]int{96}, 16, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(last.CkptGBps, "ckpt-GB/s")
	b.ReportMetric(last.RestartGBps, "restart-GB/s")
}

// --- Fig 13: log-ring failure notification.

func BenchmarkFig13Notification(b *testing.B) {
	var last experiments.NotifyPoint
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NotifySweep([]int{96}, 2, 5*time.Millisecond, 2*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(last.MaxSeconds*1e3, "notify-ms-96p")
	b.ReportMetric(float64(last.Hops), "hops")
}

// --- Fig 14: FMI_Init vs MPI_Init.

func BenchmarkFig14Init(b *testing.B) {
	var last experiments.InitPoint
	for i := 0; i < b.N; i++ {
		rows, err := experiments.InitSweep([]int{96}, 2)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric((last.TreeSeconds+last.LogRingSeconds)*1e3, "fmi-init-ms-96p")
	b.ReportMetric(last.KVSSeconds*1e3, "mpi-init-ms-96p")
}

// --- Fig 15: the Himeno application study.

func BenchmarkFig15Himeno(b *testing.B) {
	cfg := experiments.Fig15Config{
		Ranks: 4, ProcsPerNode: 1, NX: 66, NY: 64, NZ: 64,
		Iters: 40, MTBF: 200 * time.Millisecond, Spares: 4, Seed: 5,
		DetectDelay: 2 * time.Millisecond, PropDelay: time.Millisecond,
		Timeout:     5 * time.Minute,
		ScriptLoops: []int{12, 27},
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Series {
			case "FMI":
				b.ReportMetric(r.GFLOPS, "FMI-GFLOPS")
			case "FMI + C/R":
				b.ReportMetric(r.GFLOPS, "FMI+CR-GFLOPS")
			case "MPI + C":
				b.ReportMetric(r.GFLOPS, "MPI+C-GFLOPS")
			}
		}
	}
}

// --- Figs 16/17: analytic models.

func BenchmarkFig16Survival(b *testing.B) {
	var w float64
	for i := 0; i < b.N; i++ {
		w, _ = model.Fig16Point(model.Coastal(), 10)
	}
	b.ReportMetric(w, "P24h-FMI-10x")
}

func BenchmarkFig17Multilevel(b *testing.B) {
	cfg := model.DefaultFig17Config()
	var eff float64
	for i := 0; i < b.N; i++ {
		eff = model.Fig17Point(cfg, model.Coastal(), 10e9, 50, true)
	}
	b.ReportMetric(eff, "efficiency-worst-corner")
}

// --- Ablations.

func BenchmarkAblateLogRingBase(b *testing.B) {
	for _, base := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "k2", 4: "k4", 8: "k8"}[base], func(b *testing.B) {
			var last experiments.NotifyPoint
			for i := 0; i < b.N; i++ {
				rows, err := experiments.NotifySweep([]int{96}, base, 2*time.Millisecond, time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
			}
			b.ReportMetric(last.MaxSeconds*1e3, "notify-ms")
			b.ReportMetric(float64(last.Hops), "hops")
		})
	}
}

// --- End-to-end: the survivable runtime under failures (the paper's
// headline behaviour as a benchmark).

func BenchmarkRunThroughFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results sync.Map
		cfg := fmi.Config{
			Ranks: 4, ProcsPerNode: 1, SpareNodes: 1, CheckpointInterval: 2,
			XORGroupSize: 4, DetectDelay: 2 * time.Millisecond, PropDelay: time.Millisecond,
			Timeout: time.Minute,
			Faults:  &fmi.FaultPlan{Script: []fmi.Fault{{AfterLoop: 5, Node: -1, Rank: 1}}},
		}
		_, err := fmi.Run(cfg, func(env *fmi.Env) error {
			state := make([]byte, 8)
			for {
				n := env.Loop(state)
				if n >= 10 {
					break
				}
				if _, err := fmi.AllreduceInt64(env.World(), fmi.SumInt64(), int64(n)); err != nil {
					continue
				}
				binary.LittleEndian.PutUint64(state, uint64(n+1))
			}
			results.Store(env.Rank(), true)
			return env.Finalize()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
