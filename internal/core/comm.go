package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fmi/internal/coll"
)

// Comm is an FMI communicator: an ordered list of world ranks plus a
// context id isolating its message traffic. Because FMI ranks are
// virtual and resolved through the epoch's endpoint table at send
// time, communicators survive failures without any repair (paper
// §IV-D, Fig 8): after recovery the same Comm values simply resolve to
// the replacement processes.
type Comm struct {
	p       *Proc
	ctx     uint32
	members []int // world ranks, ordered; index = rank within the comm
	myIdx   int   // this process's rank within the comm

	// collSeq numbers the collectives issued on this communicator
	// before the first Loop call; those go through the coordinator and
	// are cached so a restarted process can replay its initialisation
	// phase (including any Bcast of configuration data) and obtain the
	// original results.
	collSeq int

	// scheds caches the collective schedules this rank generated on the
	// communicator (see schedule).
	scheds map[schedKey]*coll.Schedule
}

func newWorldComm(p *Proc) *Comm {
	members := make([]int, p.n)
	for i := range members {
		members[i] = i
	}
	return &Comm{p: p, ctx: ctxWorld, members: members, myIdx: p.rank}
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myIdx }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) (int, error) {
	if r < 0 || r >= len(c.members) {
		return -1, fmt.Errorf("%w: %d in comm of size %d", ErrInvalidRank, r, len(c.members))
	}
	return c.members[r], nil
}

// Dup duplicates the communicator (MPI_Comm_dup): same members, fresh
// context id. Collective, but requires no data exchange — every member
// derives the same context id from the shared creation counter.
func (c *Comm) Dup() (*Comm, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	ctx := c.p.nextCtx
	c.p.nextCtx++
	c.p.commSeq++
	return &Comm{p: c.p, ctx: ctx, members: append([]int{}, c.members...), myIdx: c.myIdx}, nil
}

// Split partitions the communicator by color, ordering each partition
// by key then by current rank (MPI_Comm_split). The color/key exchange
// goes through the job coordinator and is cached there, so a restarted
// process replaying its pre-loop communicator construction obtains the
// original result (this is how FMI keeps communicator recovery
// transparent; creation inside nested loops remains a documented
// limitation, as in paper §VIII).
func (c *Comm) Split(color, key int) (*Comm, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	ctx := c.p.nextCtx
	c.p.nextCtx++
	seq := c.p.commSeq
	c.p.commSeq++

	var val [8]byte
	binary.LittleEndian.PutUint32(val[0:], uint32(color))
	binary.LittleEndian.PutUint32(val[4:], uint32(key))
	gatherKey := fmt.Sprintf("split/%d/%d", c.ctx, seq)
	vals, err := c.p.coordGather(gatherKey, c.myIdx, len(c.members), val[:])
	if err != nil {
		return nil, err
	}
	type entry struct{ color, key, commRank int }
	var mine []entry
	myColor := color
	for r, v := range vals {
		cr := int(int32(binary.LittleEndian.Uint32(v[0:])))
		kr := int(int32(binary.LittleEndian.Uint32(v[4:])))
		if cr == myColor {
			mine = append(mine, entry{cr, kr, r})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].commRank < mine[j].commRank
	})
	members := make([]int, len(mine))
	myIdx := -1
	for i, e := range mine {
		members[i] = c.members[e.commRank]
		if e.commRank == c.myIdx {
			myIdx = i
		}
	}
	return &Comm{p: c.p, ctx: ctx, members: members, myIdx: myIdx}, nil
}

// Translate returns the comm rank of a world rank, or -1.
func (c *Comm) Translate(worldRank int) int {
	for i, m := range c.members {
		if m == worldRank {
			return i
		}
	}
	return -1
}

// Context returns the communicator's context id (diagnostics).
func (c *Comm) Context() uint32 { return c.ctx }
