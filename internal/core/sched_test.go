package core

import (
	"reflect"
	"testing"

	"fmi/internal/coll"
)

// TestScheduleCache pins the per-communicator schedule cache: a cached
// schedule is the one generated on first use and equals a freshly
// generated one, and once the world resizes the same communicator gets
// schedules for its new size.
func TestScheduleCache(t *testing.T) {
	ops := []coll.Opcode{coll.OpBcast, coll.OpReduce, coll.OpBarrier, coll.OpAllreduce,
		coll.OpAllgather, coll.OpAlltoall, coll.OpGather, coll.OpScatter}
	algos := []coll.Algo{coll.AlgoBinomial, coll.AlgoRecDbl, coll.AlgoRing, coll.AlgoBruck,
		coll.AlgoPairwise, coll.AlgoLinear, coll.AlgoTree}
	c := &Comm{members: []int{0, 1, 2, 3, 4}, myIdx: 1}
	for _, n := range []int{5, 8, 3} {
		c.members = make([]int, n)
		for i := range c.members {
			c.members[i] = i
		}
		generated := 0
		for _, op := range ops {
			for _, algo := range algos {
				for _, root := range []int{0, 2} {
					k := schedKey{op: op, algo: algo, idx: c.myIdx, n: n, root: root}
					fresh, ferr := genSchedule(k)
					got, err := c.schedule(op, algo, root)
					if (err != nil) != (ferr != nil) {
						t.Fatalf("%v: cache error %v, generator error %v", k, err, ferr)
					}
					if ferr != nil {
						continue
					}
					generated++
					if got.NRanks != n || got.Rank != c.myIdx {
						t.Fatalf("%v: schedule for rank %d of %d", k, got.Rank, got.NRanks)
					}
					if !reflect.DeepEqual(got, fresh) {
						t.Fatalf("%v: cached schedule differs from a fresh one", k)
					}
					again, _ := c.schedule(op, algo, root)
					if again != got {
						t.Fatalf("%v: second lookup generated a new schedule", k)
					}
				}
			}
		}
		if generated == 0 {
			t.Fatalf("n=%d: no operation had a schedule", n)
		}
	}
}
