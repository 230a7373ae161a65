package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fmi/internal/bootstrap"
	"fmi/internal/coll"
	"fmi/internal/replica"
	"fmi/internal/transport"
)

// fakeCtl is a minimal Control for unit-testing the runtime core
// without the process manager: a single epoch that can be bumped
// manually.
type fakeCtl struct {
	coord *bootstrap.Coordinator

	mu      sync.Mutex
	epoch   uint32
	chans   map[uint32]chan struct{}
	waiters []chan uint32
	aborted error
	loops   [][2]int
}

func newFakeCtl() *fakeCtl {
	return &fakeCtl{coord: bootstrap.NewCoordinator(), chans: make(map[uint32]chan struct{})}
}

func (f *fakeCtl) Coordinator() *bootstrap.Coordinator { return f.coord }

func (f *fakeCtl) AwaitEpoch(min uint32, cancel <-chan struct{}) (uint32, error) {
	f.mu.Lock()
	if f.epoch >= min {
		e := f.epoch
		f.mu.Unlock()
		return e, nil
	}
	ch := make(chan uint32, 1)
	f.waiters = append(f.waiters, ch)
	f.mu.Unlock()
	select {
	case e := <-ch:
		return e, nil
	case <-cancel:
		return 0, ErrKilled
	}
}

func (f *fakeCtl) EpochNotify(e uint32) <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.chans[e]
	if !ok {
		ch = make(chan struct{})
		f.chans[e] = ch
		if f.epoch > e {
			close(ch)
		}
	}
	return ch
}

func (f *fakeCtl) bump() {
	f.mu.Lock()
	old := f.epoch
	f.epoch++
	for e, ch := range f.chans {
		if f.epoch > e {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	}
	ws := f.waiters
	f.waiters = nil
	e := f.epoch
	f.mu.Unlock()
	for _, w := range ws {
		w <- e
	}
	for _, prefix := range []string{"h1", "avail", "h3", "finalize"} {
		f.coord.AbortGather(fmt.Sprintf("%s/%d", prefix, old), ErrFailureDetected)
	}
}

func (f *fakeCtl) ReportLoop(rank, loopID int) {
	f.mu.Lock()
	f.loops = append(f.loops, [2]int{rank, loopID})
	f.mu.Unlock()
}

func (f *fakeCtl) Abort(err error) {
	f.mu.Lock()
	if f.aborted == nil {
		f.aborted = err
	}
	f.mu.Unlock()
}

// world spins up n ranks on a fake control and runs fn in each,
// returning per-rank errors.
func world(t *testing.T, n int, fn func(p *Proc) error) []error {
	t.Helper()
	return worldPolicy(t, n, coll.Policy{}, fn)
}

// worldPolicy is world with the collective algorithms selected by pol.
func worldPolicy(t *testing.T, n int, pol coll.Policy, fn func(p *Proc) error) []error {
	t.Helper()
	return spawnWorld(t, n, 1, func(c *Config) { c.Coll = pol }, fn)
}

// worldMode is world under a recovery protocol: "global", "local"
// (sender-based logging), or "replica" (every rank a primary/shadow
// pair; the shadows' errors follow the primaries' in the result).
func worldMode(t *testing.T, n int, mode string, fn func(p *Proc) error) []error {
	t.Helper()
	var reg *replica.Registry
	copies := 1
	if mode == "replica" {
		reg = replica.NewRegistry(n)
		copies = 2
	}
	return spawnWorld(t, n, copies, func(c *Config) {
		c.Local = mode == "local"
		c.Replica = reg
	}, fn)
}

// spawnWorld runs copies processes per rank on a fake control — the
// second copy of each rank its replica shadow — with their configs
// adjusted by mod, and returns the per-process errors.
func spawnWorld(t *testing.T, n, copies int, mod func(*Config), fn func(p *Proc) error) []error {
	t.Helper()
	nw := transport.NewChanNetwork(transport.Options{})
	ctl := newFakeCtl()
	errs := make([]error, copies*n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil && !IsKilledPanic(v) {
					errs[i] = fmt.Errorf("panic: %v", v)
				}
			}()
			cfg := Config{
				Rank: i % n, N: n, ProcsPerNode: 1, GroupSize: 4,
				Interval: 1 << 30, Network: nw, Ctl: ctl,
				KillCh: make(chan struct{}), Shadow: i >= n,
			}
			mod(&cfg)
			p, err := Init(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(p)
		}(i)
	}
	wg.Wait()
	return errs
}

func checkErrs(t *testing.T, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func sum64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		v := int64(leU64(acc[i:])) + int64(leU64(src[i:]))
		lePut64(acc[i:], uint64(v))
	}
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func lePut64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func enc64(v int64) []byte {
	b := make([]byte, 8)
	lePut64(b, uint64(v))
	return b
}

func TestInitStates(t *testing.T) {
	errs := world(t, 4, func(p *Proc) error {
		if p.State() != StateRunning {
			return fmt.Errorf("state = %v after Init", p.State())
		}
		if p.Rank() < 0 || p.Rank() >= 4 || p.Size() != 4 {
			return fmt.Errorf("rank/size wrong: %d/%d", p.Rank(), p.Size())
		}
		if p.Epoch() != 0 {
			return fmt.Errorf("epoch = %d", p.Epoch())
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestCollectivesPostLoop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// The automatic policy, then every schedule family forced
			// (a forced rec-dbl allgather falls back to the ring off
			// powers of two). The ring allreduce splits the 8-byte
			// payload into byte chunks that sum64 cannot add; it is
			// forced with n-lane payloads by the root package's
			// mid-collective kill tests.
			for _, pol := range []coll.Policy{
				{},
				{Allreduce: coll.AlgoTree, Allgather: coll.AlgoRecDbl, Barrier: coll.AlgoRecDbl, Alltoall: coll.AlgoPairwise, Bcast: coll.AlgoBinomial},
				{Allreduce: coll.AlgoRecDbl, Allgather: coll.AlgoRing, Alltoall: coll.AlgoBruck},
			} {
				collectivesPostLoop(t, n, pol)
			}
		})
	}
}

func collectivesPostLoop(t *testing.T, n int, pol coll.Policy) {
	t.Helper()
	errs := worldPolicy(t, n, pol, func(p *Proc) error {
		state := make([]byte, 1)
		p.Loop([][]byte{state}) // switch to the data plane
		w := p.World()

		// Allreduce: sum of ranks.
		out, err := w.Allreduce(enc64(int64(p.Rank())), sum64)
		if err != nil {
			return err
		}
		want := int64(n * (n - 1) / 2)
		if got := int64(leU64(out)); got != want {
			return fmt.Errorf("allreduce = %d, want %d", got, want)
		}

		// Bcast from the last rank.
		var payload []byte
		if p.Rank() == n-1 {
			payload = []byte{0xCD}
		}
		b, err := w.Bcast(n-1, payload)
		if err != nil {
			return err
		}
		if len(b) != 1 || b[0] != 0xCD {
			return fmt.Errorf("bcast got %v", b)
		}

		// Reduce to rank 0.
		r, err := w.Reduce(0, enc64(2), sum64)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if got := int64(leU64(r)); got != int64(2*n) {
				return fmt.Errorf("reduce = %d", got)
			}
		} else if r != nil {
			return fmt.Errorf("non-root got reduce result")
		}

		// Gather at rank 0, sizes varying by rank.
		g, err := w.Gather(0, bytes.Repeat([]byte{byte(p.Rank())}, p.Rank()+1))
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			for r := 0; r < n; r++ {
				if len(g[r]) != r+1 || (r > 0 && g[r][0] != byte(r)) {
					return fmt.Errorf("gather slot %d = %v", r, g[r])
				}
			}
		}

		// Allgather.
		ag, err := w.Allgather([]byte{byte(p.Rank() * 3)})
		if err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if ag[r][0] != byte(r*3) {
				return fmt.Errorf("allgather slot %d = %v", r, ag[r])
			}
		}

		// Scatter from rank 0.
		var parts [][]byte
		if p.Rank() == 0 {
			for r := 0; r < n; r++ {
				parts = append(parts, []byte{byte(100 + r)})
			}
		}
		sc, err := w.Scatter(0, parts)
		if err != nil {
			return err
		}
		if sc[0] != byte(100+p.Rank()) {
			return fmt.Errorf("scatter = %v", sc)
		}

		// Alltoall: rank i sends i*10+j to rank j.
		parts = nil
		for j := 0; j < n; j++ {
			parts = append(parts, []byte{byte(p.Rank()*10 + j)})
		}
		aa, err := w.Alltoall(parts)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			if aa[src][0] != byte(src*10+p.Rank()) {
				return fmt.Errorf("alltoall from %d = %v", src, aa[src])
			}
		}

		// Barrier just completes.
		if err := w.Barrier(); err != nil {
			return err
		}
		return p.Finalize()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("policy %+v: rank %d: %v", pol, r, err)
		}
	}
}

func TestCollectivesPreLoopCoordinatorPath(t *testing.T) {
	// Before the first Loop, collectives take the cached coordinator
	// path; the results must be identical in semantics.
	errs := world(t, 4, func(p *Proc) error {
		w := p.World()
		out, err := w.Allreduce(enc64(int64(p.Rank()+1)), sum64)
		if err != nil {
			return err
		}
		if got := int64(leU64(out)); got != 10 {
			return fmt.Errorf("pre-loop allreduce = %d", got)
		}
		var seed []byte
		if p.Rank() == 2 {
			seed = []byte{7}
		}
		b, err := w.Bcast(2, seed)
		if err != nil {
			return err
		}
		if b[0] != 7 {
			return fmt.Errorf("pre-loop bcast = %v", b)
		}
		ag, err := w.Allgather([]byte{byte(p.Rank())})
		if err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if ag[r][0] != byte(r) {
				return fmt.Errorf("pre-loop allgather = %v", ag)
			}
		}
		var parts [][]byte
		for j := 0; j < 4; j++ {
			parts = append(parts, []byte{byte(p.Rank()*4 + j)})
		}
		aa, err := w.Alltoall(parts)
		if err != nil {
			return err
		}
		for src := 0; src < 4; src++ {
			if aa[src][0] != byte(src*4+p.Rank()) {
				return fmt.Errorf("pre-loop alltoall = %v", aa)
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestPointToPoint(t *testing.T) {
	errs := world(t, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			if err := w.Send(1, 5, []byte("ping")); err != nil {
				return err
			}
			data, from, err := w.Recv(1, 6)
			if err != nil {
				return err
			}
			if string(data) != "pong" || from != 1 {
				return fmt.Errorf("got %q from %d", data, from)
			}
			// AnySource receive.
			if err := w.Send(1, 7, nil); err != nil {
				return err
			}
			data, from, err = w.Recv(AnySource, 8)
			if err != nil {
				return err
			}
			if from != 1 || len(data) != 3 {
				return fmt.Errorf("anysource got %q from %d", data, from)
			}
		} else {
			data, _, err := w.Recv(0, 5)
			if err != nil {
				return err
			}
			if string(data) != "ping" {
				return fmt.Errorf("got %q", data)
			}
			if err := w.Send(0, 6, []byte("pong")); err != nil {
				return err
			}
			if _, _, err := w.Recv(0, 7); err != nil {
				return err
			}
			if err := w.Send(0, 8, []byte("abc")); err != nil {
				return err
			}
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestIsendIrecvWait(t *testing.T) {
	errs := world(t, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 10; i++ {
				r, err := w.Isend(1, 3, []byte{byte(i)})
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if err := WaitAll(reqs...); err != nil {
				return err
			}
		} else {
			var reqs []*Request
			for i := 0; i < 10; i++ {
				r, err := w.Irecv(0, 3)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			for i, r := range reqs {
				data, from, err := r.Wait()
				if err != nil {
					return err
				}
				if from != 0 || data[0] != byte(i) {
					return fmt.Errorf("irecv %d got %v from %d (ordering broken)", i, data, from)
				}
			}
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestInvalidArguments(t *testing.T) {
	// Only symmetric, purely-local argument errors here; an
	// asymmetric erroneous collective is undefined behaviour in MPI
	// and would (correctly) deadlock the peers.
	errs := world(t, 2, func(p *Proc) error {
		w := p.World()
		if err := w.Send(5, 1, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("send to rank 5: %v", err)
		}
		if err := w.Send(0, -3, nil); err == nil {
			return fmt.Errorf("negative user tag accepted")
		}
		if _, _, err := w.Recv(0, -1); err == nil {
			return fmt.Errorf("negative recv tag accepted")
		}
		if _, err := w.Irecv(0, -1); err == nil {
			return fmt.Errorf("negative irecv tag accepted")
		}
		if _, err := w.Bcast(9, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("bcast root 9: %v", err)
		}
		if _, err := w.Reduce(-1, nil, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("reduce root -1: %v", err)
		}
		if _, err := w.Gather(2, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("gather root 2: %v", err)
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestInvalidCollectiveShapes(t *testing.T) {
	// Root-local shape errors, tested single-rank so nobody blocks.
	errs := world(t, 1, func(p *Proc) error {
		w := p.World()
		state := make([]byte, 1)
		p.Loop([][]byte{state})
		if _, err := w.Scatter(0, [][]byte{{1}, {2}}); err == nil {
			return fmt.Errorf("oversized scatter parts accepted")
		}
		if _, err := w.Alltoall([][]byte{{1}, {2}}); err == nil {
			return fmt.Errorf("oversized alltoall parts accepted")
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestDupAndSplitSemantics(t *testing.T) {
	errs := world(t, 6, func(p *Proc) error {
		w := p.World()
		dup, err := w.Dup()
		if err != nil {
			return err
		}
		if dup.Size() != 6 || dup.Rank() != p.Rank() {
			return fmt.Errorf("dup shape wrong")
		}
		if dup.Context() == w.Context() {
			return fmt.Errorf("dup shares context id")
		}
		// Split by parity, key ordering by negated rank reverses order.
		half, err := dup.Split(p.Rank()%2, -p.Rank())
		if err != nil {
			return err
		}
		if half.Size() != 3 {
			return fmt.Errorf("half size = %d", half.Size())
		}
		// Highest original rank gets comm rank 0 (lowest key).
		wr, err := half.WorldRank(0)
		if err != nil {
			return err
		}
		wantFirst := 4 + p.Rank()%2
		if wr != wantFirst {
			return fmt.Errorf("half[0] = world %d, want %d", wr, wantFirst)
		}
		if half.Translate(p.Rank()) != half.Rank() {
			return fmt.Errorf("translate inconsistent")
		}
		// Collectives on the split comm work.
		state := make([]byte, 1)
		p.Loop([][]byte{state})
		out, err := half.Allreduce(enc64(1), sum64)
		if err != nil {
			return err
		}
		if got := int64(leU64(out)); got != 3 {
			return fmt.Errorf("half allreduce = %d", got)
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestLoopCheckpointCadence(t *testing.T) {
	nw := transport.NewChanNetwork(transport.Options{})
	ctl := newFakeCtl()
	const n, iters, interval = 2, 9, 3
	counts := make([]int, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Init(Config{
				Rank: i, N: n, GroupSize: 2, Interval: interval,
				Network: nw, Ctl: ctl, KillCh: make(chan struct{}),
			})
			if err != nil {
				errs[i] = err
				return
			}
			state := make([]byte, 4)
			prevCkpt := -1
			for {
				id := p.Loop([][]byte{state})
				if p.lastCkpt != prevCkpt {
					counts[i]++
					prevCkpt = p.lastCkpt
				}
				if id >= iters {
					break
				}
			}
			errs[i] = p.Finalize()
		}(i)
	}
	wg.Wait()
	checkErrs(t, errs)
	// Checkpoints at ids 0, 3, 6, 9 => 4 per rank.
	for i, c := range counts {
		if c != 4 {
			t.Fatalf("rank %d checkpointed %d times, want 4 (ids 0,3,6,9)", i, c)
		}
	}
}

func TestBriefCodecRoundtrip(t *testing.T) {
	in := brief{
		ChunkLen: 77, RestoreID: 5, NextCtx: 9, CommSeq: 3,
		Sizes:  []int{10, 0, 33},
		Shapes: [][]int{{10}, {}, {11, 22}},
	}
	out, err := decodeBrief(encodeBrief(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ChunkLen != in.ChunkLen || out.RestoreID != in.RestoreID ||
		out.NextCtx != in.NextCtx || out.CommSeq != in.CommSeq {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i := range in.Sizes {
		if out.Sizes[i] != in.Sizes[i] {
			t.Fatalf("sizes mismatch: %v", out.Sizes)
		}
	}
	for i := range in.Shapes {
		if len(out.Shapes[i]) != len(in.Shapes[i]) {
			t.Fatalf("shapes mismatch: %v", out.Shapes)
		}
		for j := range in.Shapes[i] {
			if out.Shapes[i][j] != in.Shapes[i][j] {
				t.Fatalf("shapes mismatch: %v", out.Shapes)
			}
		}
	}
	// Truncations rejected.
	full := encodeBrief(in)
	for _, cut := range []int{1, 5, len(full) - 2} {
		if _, err := decodeBrief(full[:cut]); err == nil {
			t.Fatalf("truncated brief (%d bytes) accepted", cut)
		}
	}
	// Negative restore id survives.
	neg := brief{RestoreID: -1, Sizes: []int{}, Shapes: [][]int{}}
	got, err := decodeBrief(encodeBrief(neg))
	if err != nil || got.RestoreID != -1 {
		t.Fatalf("negative restore id: %+v, %v", got, err)
	}
}

func TestAvailCodec(t *testing.T) {
	for _, in := range []availInfo{
		{AvailID: -1, Interval: 1, IsReplacement: true},
		{AvailID: 42, Interval: 7},
	} {
		out := decodeAvail(encodeAvail(in))
		if out != in {
			t.Fatalf("roundtrip: %+v != %+v", out, in)
		}
	}
	if got := decodeAvail([]byte{1, 2}); got.AvailID != -1 {
		t.Fatalf("short decode: %+v", got)
	}
}

func TestGroupMetaCodec(t *testing.T) {
	in := groupMeta{TotalSize: 1234, Shape: []int{100, 0, 1134}}
	out, err := decodeGroupMeta(encodeGroupMeta(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalSize != in.TotalSize || len(out.Shape) != 3 || out.Shape[2] != 1134 {
		t.Fatalf("roundtrip: %+v", out)
	}
	if _, err := decodeGroupMeta([]byte{1}); err == nil {
		t.Fatal("truncated meta accepted")
	}
}

func TestStatsCollectors(t *testing.T) {
	var s Stats
	s.AddCheckpoint(time.Second, 100)
	s.AddCheckpoint(3*time.Second, 200)
	s.AddRestore(time.Second)
	s.AddRecovery(2 * time.Second)
	s.AddNotify(100 * time.Millisecond)
	s.AddNotify(300 * time.Millisecond)
	s.AddInit(time.Second)
	s.AddLostIterations(5)
	s.AddLostIterations(-3) // ignored
	snap := s.Snapshot()
	if snap.Checkpoints != 2 || snap.CheckpointBytes != 300 {
		t.Fatalf("ckpt stats: %+v", snap)
	}
	if snap.MeanNotify != 200*time.Millisecond {
		t.Fatalf("mean notify = %v", snap.MeanNotify)
	}
	if snap.LostIterations != 5 {
		t.Fatalf("lost iters = %d", snap.LostIterations)
	}
	// nil receiver is a no-op.
	var nilStats *Stats
	nilStats.AddCheckpoint(time.Second, 1)
	nilStats.AddRestore(0)
	nilStats.AddNotify(0)
}

func TestEWMA(t *testing.T) {
	if ewma(0, time.Second) != time.Second {
		t.Fatal("first sample should initialise")
	}
	got := ewma(time.Second, 2*time.Second)
	if got <= time.Second || got >= 2*time.Second {
		t.Fatalf("ewma = %v", got)
	}
}

func TestFinalizeTwice(t *testing.T) {
	errs := world(t, 2, func(p *Proc) error {
		if err := p.Finalize(); err != nil {
			return err
		}
		if err := p.Finalize(); !errors.Is(err, ErrFinalized) {
			return fmt.Errorf("second Finalize: %v", err)
		}
		if err := p.World().Barrier(); !errors.Is(err, ErrFinalized) {
			return fmt.Errorf("post-finalize barrier: %v", err)
		}
		return nil
	})
	checkErrs(t, errs)
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateBootstrapping: "H1-bootstrapping",
		StateConnecting:    "H2-connecting",
		StateRunning:       "H3-running",
		StateFinalized:     "finalized",
		State(99):          "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestPackUnpackSlices(t *testing.T) {
	in := [][]byte{{1, 2}, {}, {3}}
	out, err := unpackSlices(packSlices(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || !bytes.Equal(out[0], in[0]) || len(out[1]) != 0 || !bytes.Equal(out[2], in[2]) {
		t.Fatalf("roundtrip: %v", out)
	}
	if _, err := unpackSlices([]byte{1, 2}); err == nil {
		t.Fatal("truncated pack accepted")
	}
}

func TestTryRecv(t *testing.T) {
	errs := world(t, 2, func(p *Proc) error {
		w := p.World()
		if p.Rank() == 0 {
			// Nothing can have arrived yet: rank 1 sends only after
			// the barrier below.
			if _, _, ok, err := w.TryRecv(1, 4); err != nil || ok {
				return fmt.Errorf("empty TryRecv: ok=%v err=%v", ok, err)
			}
			if err := w.Barrier(); err != nil {
				return err
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				data, from, ok, err := w.TryRecv(AnySource, 4)
				if err != nil {
					return err
				}
				if ok {
					if from != 1 || string(data) != "late" {
						return fmt.Errorf("TryRecv got %q from %d", data, from)
					}
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("message never arrived")
				}
				time.Sleep(time.Millisecond)
			}
		} else {
			if err := w.Barrier(); err != nil {
				return err
			}
			if err := w.Send(0, 4, []byte("late")); err != nil {
				return err
			}
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestTryRecvInvalidArgs(t *testing.T) {
	errs := world(t, 1, func(p *Proc) error {
		w := p.World()
		if _, _, _, err := w.TryRecv(0, -2); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if _, _, _, err := w.TryRecv(9, 1); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("invalid src: %v", err)
		}
		return p.Finalize()
	})
	checkErrs(t, errs)
}

func TestL2HeaderCodec(t *testing.T) {
	h := l2Header{LoopID: 12, Interval: 3, NextCtx: 8, CommSeq: 2, L1Count: 5, Shape: []int{4, 0, 16}}
	data := []byte{9, 8, 7}
	gotH, gotData, err := decodeL2(encodeL2(h, data))
	if err != nil {
		t.Fatal(err)
	}
	if gotH.LoopID != 12 || gotH.Interval != 3 || gotH.NextCtx != 8 || gotH.CommSeq != 2 || gotH.L1Count != 5 {
		t.Fatalf("header: %+v", gotH)
	}
	if len(gotH.Shape) != 3 || gotH.Shape[2] != 16 {
		t.Fatalf("shape: %v", gotH.Shape)
	}
	if !bytes.Equal(gotData, data) {
		t.Fatalf("data: %v", gotData)
	}
	if _, _, err := decodeL2([]byte{1, 2}); err == nil {
		t.Fatal("truncated L2 blob accepted")
	}
}

func TestSpuriousNotificationRecovery(t *testing.T) {
	// The control plane bumps the epoch although nobody died (e.g. a
	// transient false positive). All ranks are survivors: they rebuild
	// H1/H2, agree on the newest common checkpoint, and roll back —
	// the run completes with the exact answer.
	nw := transport.NewChanNetwork(transport.Options{})
	ctl := newFakeCtl()
	const n, iters = 4, 10
	results := make([]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	var bumped sync.Once
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil && !IsKilledPanic(v) {
					errs[i] = fmt.Errorf("panic: %v", v)
				}
			}()
			p, err := Init(Config{
				Rank: i, N: n, GroupSize: 4, Interval: 2,
				Network: nw, Ctl: ctl, KillCh: make(chan struct{}),
			})
			if err != nil {
				errs[i] = err
				return
			}
			state := make([]byte, 16)
			for {
				id := p.Loop([][]byte{state})
				if id >= iters {
					break
				}
				if id == 5 && i == 0 {
					bumped.Do(func() { go ctl.bump() })
				}
				out, err := p.World().Allreduce(enc64(int64(id+i)), sum64)
				if err != nil {
					continue
				}
				acc := leU64(state[8:]) + leU64(out)
				lePut64(state[8:], acc)
				lePut64(state[0:], uint64(id+1))
			}
			results[i] = leU64(state[8:])
			errs[i] = p.Finalize()
		}(i)
	}
	wg.Wait()
	checkErrs(t, errs)
	var want uint64
	for id := 0; id < iters; id++ {
		for r := 0; r < n; r++ {
			want += uint64(id + r)
		}
	}
	for i, got := range results {
		if got != want {
			t.Fatalf("rank %d: %d, want %d", i, got, want)
		}
	}
}

// TestIrecvTestWithoutWait pins Request.Test under every recovery
// protocol: a posted receive reports false while nothing has arrived,
// and true once the message is there — without Wait driving it — and
// Wait then returns that message. Under replica recovery every rank
// runs as a primary/shadow pair, so each receiver endpoint gets two
// copies of the message and keeps one.
func TestIrecvTestWithoutWait(t *testing.T) {
	for _, mode := range []string{"global", "local", "replica"} {
		t.Run(mode, func(t *testing.T) {
			copies := 1
			if mode == "replica" {
				copies = 2
			}
			var posted sync.WaitGroup // every copy of rank 1 has checked Test before anything is sent
			posted.Add(copies)
			errs := worldMode(t, 2, mode, func(p *Proc) error {
				w := p.World()
				if p.Rank() == 0 {
					posted.Wait()
					if err := w.Send(1, 9, []byte("hi")); err != nil {
						return err
					}
					return p.Finalize()
				}
				r, err := w.Irecv(0, 9)
				if err != nil {
					return err
				}
				early := r.Test()
				posted.Done()
				if early {
					return errors.New("Test reported a match before anything was sent")
				}
				deadline := time.Now().Add(5 * time.Second)
				for !r.Test() {
					if time.Now().After(deadline) {
						return errors.New("Test never reported the arrived message")
					}
					time.Sleep(time.Millisecond)
				}
				data, from, err := r.Wait()
				if err != nil || string(data) != "hi" || from != 0 {
					return fmt.Errorf("Wait after Test: %q from %d, %v", data, from, err)
				}
				return p.Finalize()
			})
			checkErrs(t, errs)
		})
	}
}

