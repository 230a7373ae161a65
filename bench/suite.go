package main

import (
	"time"

	"fmi"
)

// A suite is one benchmark workload: a transport and a recovery
// protocol, under which the same three stages run so that every
// end-to-end metric is measured on every workload. The stages are the
// five workloads of the issue that defined this benchmark:
//
//	chan-global: msg-chan, himeno-ckpt, himeno-fail-global
//	tcp-global:  msg-tcp, and the two Himeno stages on TCP
//	chan-local:  himeno-fail-local, and the other two stages with
//	             sender-based logging switched on
type suite struct {
	Name      string
	Transport fmi.TransportKind
	Recovery  string
}

var suites = []suite{
	{"chan-global", fmi.ChanTransport, "global"},
	{"tcp-global", fmi.TCPTransport, "global"},
	{"chan-local", fmi.ChanTransport, "local"},
}

func suiteByName(name string) (suite, bool) {
	for _, s := range suites {
		if s.Name == name {
			return s, true
		}
	}
	return suite{}, false
}

func suiteNames() []string {
	var names []string
	for _, s := range suites {
		names = append(names, s.Name)
	}
	return names
}

// sizes scales the stages. BENCHMARK.json gates on the full sizes;
// the smoke sizes exist so that the test finishes in seconds.
type sizes struct {
	NX, NY, NZ  int // Himeno grid
	Iters       int // Himeno iterations per job: fixed work, so a job's wall time is a time to solution
	Warm        int // untimed leading iterations per job
	KillGapMin  int // least loops between scripted kills
	KillGapVar  int // seeded extra gap, [0, KillGapVar)
	BatchTarget time.Duration
	MinPasses   int           // least passes over the messaging phases per job, one timed batch per phase each
	MsgJob      time.Duration // length of a messaging job, set-up included
	BigBytes    int           // bandwidth ping-pong payload
	MidBytes    int           // mid-size ping-pong payload
	ReduceBytes int           // large allreduce payload
	MicroBatch  time.Duration
	MicroN      int // timed batches per micro-driver
	BigWorld    int // ranks of the large bootstrap, overlay and launch drivers
}

var fullSizes = sizes{
	NX: 130, NY: 128, NZ: 128, Iters: 128, Warm: 8,
	KillGapMin: 12, KillGapVar: 9,
	BatchTarget: 10 * time.Millisecond, MinPasses: 2, MsgJob: 2 * time.Second,
	BigBytes: 8 << 20, MidBytes: 64 << 10, ReduceBytes: 1 << 20,
	MicroBatch: 5 * time.Millisecond, MicroN: 20, BigWorld: 64,
}

var smokeSizes = sizes{
	NX: 18, NY: 16, NZ: 16, Iters: 40, Warm: 4,
	KillGapMin: 12, KillGapVar: 4,
	BatchTarget: time.Millisecond, MinPasses: 1, MsgJob: 50 * time.Millisecond,
	BigBytes: 256 << 10, MidBytes: 64 << 10, ReduceBytes: 64 << 10,
	MicroBatch: 200 * time.Microsecond, MicroN: 3, BigWorld: 8,
}

const (
	ranks        = 4 // smallest world where recursive doubling, ring allreduce and a g=4 XOR ring all have more than one round
	ckptInterval = 4
	detectDelay  = time.Millisecond // pinned small so that the code, not the modelled ibverbs delay, dominates
	propDelay    = 200 * time.Microsecond
	jobTimeout   = 60 * time.Second
)

// baseConfig is the job configuration every stage starts from.
func baseConfig(s suite) fmi.Config {
	return fmi.Config{
		Ranks:        ranks,
		XORGroupSize: 4,
		Recovery:     s.Recovery,
		Transport:    s.Transport,
		DetectDelay:  detectDelay,
		PropDelay:    propDelay,
		Timeout:      jobTimeout,
	}
}

// metricDef names one metric. The end-to-end ones are reported by the
// untraced run and gated by BENCHMARK.json; the others by the traced
// run.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	E2E    bool
	// Clock is how far an end-to-end metric's samples follow the
	// reference kernel (refclock.go), as an exponent: 1 for times bound
	// by computing, streaming through the caches and hand-offs between
	// goroutines; less for those bound by copying and XOR-ing buffers
	// of 64 KiB to 8 MiB or by waiting, which the host's state slows
	// less than it slows the kernel. The exponents were measured (six
	// sets of ten to twelve runs, least spread) and rounded to quarters.
	Clock float64
}

func def(name, unit, better string) metricDef { return metricDef{name, unit, better, false, 0} }
func e2e(name, unit, better string, clock float64) metricDef {
	return metricDef{name, unit, better, true, clock}
}

var metricDefs = []metricDef{
	e2e("setup_s", "s", "lower", 1),
	e2e("rtt_8B_us", "us", "lower", 1),
	e2e("rtt_64KiB_us", "us", "lower", 0.75),
	e2e("rtt_8B_colo_us", "us", "lower", 1),
	e2e("bw_8MiB_MBps", "MB/s", "higher", 0.5),
	e2e("allreduce_8B_us", "us", "lower", 1),
	e2e("wall_s", "s", "lower", 1),
	e2e("iter_ms", "ms", "lower", 1),
	e2e("ckpt_ms", "ms", "lower", 0.75),
	e2e("wall_fail_s", "s", "lower", 1),
	e2e("recovery_ms", "ms", "lower", 0.5),

	def("transport.chan_send_ns", "ns", "lower"),
	def("transport.ring_send_ns", "ns", "lower"),
	def("transport.tcp_send_ns", "ns", "lower"),
	def("transport.batched_send_ns", "ns", "lower"),
	def("transport.matcher_contention_ns", "ns", "lower"),
	def("transport.send_allocs", "count", "lower"),
	def("transport.stream_64KiB_MBps", "MB/s", "higher"),
	def("transport.flood_64B_kmsgps", "kmsg/s", "higher"),
	def("transport.delivered_per_iter", "count", "lower"),
	def("transport.stale_dropped", "count", "lower"),
	def("transport.dup_suppressed", "count", "lower"),
	def("bufpool.get_put_ns", "ns", "lower"),
	def("bufpool.hit_share", "%", "higher"),
	def("enc.pack_ns", "ns", "lower"),
	def("enc.unpack_ns", "ns", "lower"),
	def("enc.batch_unpack_ns", "ns", "lower"),
	def("coll.gen_allreduce_n4_ns", "ns", "lower"),
	def("coll.gen_allreduce_n64_ns", "ns", "lower"),
	def("coll.rounds_allreduce_8B", "count", "lower"),
	def("coll.msgs_allreduce_1MiB", "count", "lower"),
	def("coll.exec_allreduce_1MiB_us", "us", "lower"),
	def("ckpt.capture_MBps", "MB/s", "higher"),
	def("ckpt.encode_ms", "ms", "lower"),
	def("ckpt.decode_ms", "ms", "lower"),
	def("ckpt.encode_allocs", "count", "lower"),
	def("ckpt.restore_MBps", "MB/s", "higher"),
	def("erasure.xor_MBps", "MB/s", "higher"),
	def("erasure.rs_encode_MBps", "MB/s", "higher"),
	def("msglog.record_ns", "ns", "lower"),
	def("msglog.trim_ns", "ns", "lower"),
	def("msglog.after_ns", "ns", "lower"),
	def("msglog.log_bytes_per_iter", "B", "lower"),
	def("msglog.replayed_msgs_per_failure", "count", "lower"),
	def("msglog.replay_ms", "ms", "lower"),
	def("bootstrap.tree_exchange_ms", "ms", "lower"),
	def("bootstrap.msgs", "count", "lower"),
	def("overlay.build_ms", "ms", "lower"),
	def("overlay.notify_hops", "count", "lower"),
	def("runtime.launch_4_ms", "ms", "lower"),
	def("runtime.launch_64_ms", "ms", "lower"),
	def("runtime.detect_ms", "ms", "lower"),
	def("overlay.notify_spread_ms", "ms", "lower"),
	def("cluster.spare_alloc_ms", "ms", "lower"),
	def("runtime.respawn_ms", "ms", "lower"),
	def("core.rebuild_ms", "ms", "lower"),
	def("core.restore_ms", "ms", "lower"),
	def("core.lost_iters_per_failure", "count", "lower"),
	def("runtime.recovery_ms", "ms", "lower"),
	def("runtime.recovery_p90_ms", "ms", "lower"),
	def("runtime.recovery_residual_ms", "ms", "lower"),
	def("core.sendrecv_ms", "ms", "lower"),
	def("core.allreduce_ms", "ms", "lower"),
	def("core.loop_nockpt_us", "us", "lower"),
	def("core.loop_ckpt_ms", "ms", "lower"),
	def("core.rtt_1MiB_us", "us", "lower"),
	def("core.rtt_64KiB_colo_us", "us", "lower"),
	def("core.allreduce_1MiB_us", "us", "lower"),
	def("himeno.compute_ms", "ms", "lower"),
	def("himeno.single_rank_mflops", "MFLOPS", "higher"),
	def("bench.span_coverage_pct", "%", "higher"),
	def("trace.add_ns", "ns", "lower"),
	def("trace.overhead_pct", "%", "lower"),
	def("replica.ff_overhead_pct", "%", "lower"),
	def("replica.promote_us", "us", "lower"),
	def("replica.failed_runs", "count", "lower"),
}

func lookupDef(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
