package bootstrap

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fmi/internal/transport"
)

// runExchange spawns n participants over a chan network and runs the
// given exchange function in each, returning the tables and costs.
func runExchange(t *testing.T, n int,
	fn func(Proc) (Table, Cost, error)) ([]Table, []Cost) {
	t.Helper()
	nw := transport.NewChanNetwork(transport.Options{})
	coord := NewCoordinator()
	eps := make([]transport.Endpoint, n)
	ms := make([]*transport.Matcher, n)
	for i := 0; i < n; i++ {
		ep, err := nw.NewEndpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		ms[i] = transport.NewMatcher(ep)
	}
	t.Cleanup(func() {
		for i := 0; i < n; i++ {
			ms[i].Close()
			eps[i].Close()
		}
	})
	tables := make([]Table, n)
	costs := make([]Cost, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], costs[i], errs[i] = fn(Proc{
				Rank: i, N: n, Addr: eps[i].Addr(), EP: eps[i], M: ms[i],
				Coord: coord, Key: "t0",
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return tables, costs
}

func checkTables(t *testing.T, tables []Table, n int, eps func(int) transport.Addr) {
	t.Helper()
	for i, tbl := range tables {
		if len(tbl) != n {
			t.Fatalf("rank %d table len = %d, want %d", i, len(tbl), n)
		}
		for r := 0; r < n; r++ {
			if tbl[r] != eps(r) {
				t.Fatalf("rank %d table[%d] = %v, want %v", i, r, tbl[r], eps(r))
			}
		}
	}
}

func TestTreeExchange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var addrs []transport.Addr
			var mu sync.Mutex
			tables, _ := runExchange(t, n, func(p Proc) (Table, Cost, error) {
				mu.Lock()
				addrs = append(addrs, p.Addr)
				mu.Unlock()
				return TreeExchange(p)
			})
			// every table consistent with itself and rank-indexed
			seen := map[transport.Addr]bool{}
			for _, a := range tables[0] {
				if seen[a] {
					t.Fatalf("duplicate addr %v in table", a)
				}
				seen[a] = true
			}
			for i := 1; i < n; i++ {
				for r := 0; r < n; r++ {
					if tables[i][r] != tables[0][r] {
						t.Fatalf("tables disagree at rank %d", r)
					}
				}
			}
		})
	}
}

func TestKVSExchange(t *testing.T) {
	tables, costs := runExchange(t, 8, KVSExchange)
	for i := 1; i < 8; i++ {
		for r := 0; r < 8; r++ {
			if tables[i][r] != tables[0][r] {
				t.Fatalf("tables disagree at rank %d", r)
			}
		}
	}
	// KVS: each proc performs 1 put + 1 fence + n gets.
	for i, c := range costs {
		if c.CoordOps != 2+8 {
			t.Fatalf("rank %d coord ops = %d, want %d", i, c.CoordOps, 10)
		}
	}
}

func TestTreeCheaperAtCoordinator(t *testing.T) {
	const n = 16
	_, treeCosts := runExchange(t, n, TreeExchange)
	_, kvsCosts := runExchange(t, n, KVSExchange)
	treeOps, kvsOps := 0, 0
	for i := 0; i < n; i++ {
		treeOps += treeCosts[i].CoordOps
		kvsOps += kvsCosts[i].CoordOps
	}
	if treeOps >= kvsOps {
		t.Fatalf("tree coordinator ops (%d) should be well below KVS (%d)", treeOps, kvsOps)
	}
}

func TestExchangesAgree(t *testing.T) {
	const n = 9
	tablesA, _ := runExchange(t, n, TreeExchange)
	// KVS over a separate network necessarily yields different addrs,
	// so just verify structural properties on the tree result.
	for r := 0; r < n; r++ {
		if tablesA[0][r] == transport.NilAddr {
			t.Fatalf("rank %d missing addr", r)
		}
	}
}

func TestAllGatherRendezvous(t *testing.T) {
	coord := NewCoordinator()
	const n = 5
	var wg sync.WaitGroup
	results := make([][][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := coord.AllGather("k", i, n, []byte{byte(i * 2)}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		for r := 0; r < n; r++ {
			if results[i][r][0] != byte(r*2) {
				t.Fatalf("participant %d slot %d = %d", i, r, results[i][r][0])
			}
		}
	}
}

func TestAllGatherLateJoinerGetsResult(t *testing.T) {
	coord := NewCoordinator()
	done := make(chan [][]byte, 1)
	go func() {
		res, _ := coord.AllGather("k", 0, 2, []byte("a"), nil)
		done <- res
	}()
	time.Sleep(5 * time.Millisecond)
	res, err := coord.AllGather("k", 1, 2, []byte("b"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(res[0]) != "a" || string(res[1]) != "b" {
		t.Fatalf("res = %q", res)
	}
	<-done
	// A third arrival after completion sees the cached result.
	res2, err := coord.AllGather("k", 1, 2, []byte("late"), nil)
	if err != nil || string(res2[1]) != "b" {
		t.Fatalf("cached result broken: %q, %v", res2, err)
	}
}

func TestAllGatherCancel(t *testing.T) {
	coord := NewCoordinator()
	cancel := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.AllGather("k", 0, 3, nil, cancel)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	if err := <-errCh; err != ErrCancelled {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// TestAllGatherCompletedBeatsCancel: waiters whose gather completes
// while their cancel fires (a peer the gather released tore its
// generation down) get the result, never ErrCancelled: a gather every
// rank passed is never re-run. The last contributor wakes the waiters
// one by one, and cancel fires as soon as the gather is complete, so
// the later waiters see both at once.
func TestAllGatherCompletedBeatsCancel(t *testing.T) {
	const waiters = 64
	for round := 0; round < 20; round++ {
		coord := NewCoordinator()
		key := fmt.Sprintf("k%d", round)
		cancel := make(chan struct{})
		errs := make(chan error, waiters)
		for r := 0; r < waiters; r++ {
			go func(r int) {
				_, err := coord.AllGather(key, r, waiters+1, nil, cancel)
				errs <- err
			}(r)
		}
		for n := 0; n < waiters; {
			runtime.Gosched()
			coord.mu.Lock()
			if g := coord.gathers[key]; g != nil {
				n = len(g.waiters)
			}
			coord.mu.Unlock()
		}
		go func() {
			for _, done := coord.completed(key); !done; _, done = coord.completed(key) {
				runtime.Gosched()
			}
			close(cancel)
		}()
		if _, ok := coord.TryAllGather(key, waiters, waiters+1, nil); !ok {
			t.Fatal("the last contribution did not complete the gather")
		}
		for r := 0; r < waiters; r++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: a waiter of a completed gather got %v", round, err)
			}
		}
	}
}

func TestKVSGetBlocksUntilPut(t *testing.T) {
	coord := NewCoordinator()
	got := make(chan []byte, 1)
	go func() {
		v, _ := coord.Get("x", nil)
		got <- v
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("Get returned before Put")
	default:
	}
	coord.Put("x", []byte("v"))
	select {
	case v := <-got:
		if string(v) != "v" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never unblocked")
	}
}

func TestFragCodecRoundtrip(t *testing.T) {
	in := map[int]transport.Addr{0: "a", 5: "longer-address:1234", 7: ""}
	out := map[int]transport.Addr{}
	if err := decodeFrag(encodeFrag(in), out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for r, a := range in {
		if out[r] != a {
			t.Fatalf("rank %d: %q != %q", r, out[r], a)
		}
	}
}

func TestFragDecodeErrors(t *testing.T) {
	if err := decodeFrag([]byte{1, 2, 3}, map[int]transport.Addr{}); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := encodeFrag(map[int]transport.Addr{1: "abcdef"})
	if err := decodeFrag(bad[:len(bad)-2], map[int]transport.Addr{}); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestCostModelShape(t *testing.T) {
	cm := DefaultCostModel()
	// MPI_Init should be slower than FMI_Init at every paper scale,
	// by roughly 2x at the top end (paper Fig 14).
	for _, n := range []int{48, 96, 192, 384, 768, 1536} {
		fmi := cm.FMIInitTime(n, 2)
		mpi := cm.MPIInitTime(n)
		if mpi <= fmi {
			t.Fatalf("n=%d: MPIInit (%v) should exceed FMIInit (%v)", n, mpi, fmi)
		}
	}
	ratio := float64(cm.MPIInitTime(1536)) / float64(cm.FMIInitTime(1536, 2))
	if ratio < 1.5 || ratio > 4 {
		t.Fatalf("MPI/FMI init ratio at 1536 = %.2f, want ~2x", ratio)
	}
	// Log-ring establishment is small and logarithmic.
	if cm.LogRingTime(1536, 2) > 200*time.Millisecond {
		t.Fatalf("log-ring time too large: %v", cm.LogRingTime(1536, 2))
	}
	// Both init curves grow with n.
	if cm.FMIInitTime(1536, 2) <= cm.FMIInitTime(48, 2) {
		t.Fatal("FMIInit not growing with n")
	}
}

func TestTreeTopology(t *testing.T) {
	if treeParent(1) != 0 || treeParent(2) != 0 || treeParent(5) != 2 {
		t.Fatal("treeParent wrong")
	}
	ch := treeChildren(0, 6)
	if len(ch) != 2 || ch[0] != 1 || ch[1] != 2 {
		t.Fatalf("children of 0 = %v", ch)
	}
	if len(treeChildren(3, 6)) != 0 {
		t.Fatal("leaf has children")
	}
	if got := treeChildren(2, 6); len(got) != 1 || got[0] != 5 {
		t.Fatalf("children of 2 = %v", got)
	}
}

func TestTryAllGatherNeverWaits(t *testing.T) {
	c := NewCoordinator()
	if _, ok := c.TryAllGather("k", 0, 2, []byte("a")); ok {
		t.Fatal("gather complete with one of two contributions")
	}
	// Polling again records nothing new and still does not wait.
	if _, ok := c.TryAllGather("k", 0, 2, []byte("a")); ok {
		t.Fatal("a repeated contribution completed the gather")
	}
	vals, ok := c.TryAllGather("k", 1, 2, []byte("b"))
	if !ok || string(vals[0]) != "a" || string(vals[1]) != "b" {
		t.Fatalf("last contribution: %q, %v", vals, ok)
	}
	if vals, ok := c.TryAllGather("k", 0, 2, []byte("a")); !ok || len(vals) != 2 {
		t.Fatalf("poll after completion: %q, %v", vals, ok)
	}
	c.AbortGather("gone", ErrCancelled)
	if _, ok := c.TryAllGather("gone", 0, 1, nil); ok {
		t.Fatal("an aborted gather reported complete")
	}
}
