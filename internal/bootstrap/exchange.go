package bootstrap

import (
	"encoding/binary"
	"fmt"

	"fmi/internal/transport"
)

// Reserved message-plane identifiers for bootstrap traffic.
const (
	CtxBootstrap uint32 = 0xFFFF0001
	tagGather    int32  = -101
	tagBcast     int32  = -102
)

// Table is the endpoint table of a job epoch: Table[rank] is the
// address of the process currently bound to that FMI rank.
type Table []transport.Addr

// Cost records what an exchange consumed; the Fig 14 harness converts
// counts into modelled times via CostModel.
type Cost struct {
	CoordOps  int // operations served by the central coordinator
	ProcMsgs  int // messages sent proc-to-proc (this process)
	ProcBytes int // bytes sent proc-to-proc (this process)
	Rounds    int // tree rounds traversed (this process)
}

// Proc bundles what one process needs to participate in an exchange.
type Proc struct {
	Rank, N int
	Addr    transport.Addr
	EP      transport.Endpoint
	M       *transport.Matcher
	Coord   *Coordinator
	Epoch   uint32
	Key     string          // unique per exchange round, e.g. "h1/epoch3"
	Cancel  <-chan struct{} // aborts the exchange
}

// treeParent and treeChildren define the binary gather/bcast tree.
func treeParent(r int) int { return (r - 1) / 2 }

func treeChildren(r, n int) []int {
	var ch []int
	if c := 2*r + 1; c < n {
		ch = append(ch, c)
	}
	if c := 2*r + 2; c < n {
		ch = append(ch, c)
	}
	return ch
}

// TreeExchange performs the PMGR-style exchange: register with the
// coordinator (learning only the tree-neighbour addresses), gather
// address fragments up the binary tree over the process transport,
// and broadcast the complete table back down. This is FMI's H1
// bootstrap path.
func TreeExchange(p Proc) (Table, Cost, error) {
	var cost Cost
	// Registration: the coordinator sees one op per process and hands
	// back the full gather result, but the tree path below is what
	// carries the table at scale; we deliberately use only our tree
	// neighbours' addresses from the registration.
	regVals, err := p.Coord.AllGather(p.Key+"/reg", p.Rank, p.N, []byte(p.Addr), p.Cancel)
	if err != nil {
		return nil, cost, err
	}
	cost.CoordOps = 1
	addrOf := func(r int) transport.Addr { return transport.Addr(regVals[r]) }

	children := treeChildren(p.Rank, p.N)
	// Gather phase: collect fragments from children, merge with own.
	frag := map[int]transport.Addr{p.Rank: p.Addr}
	for range children {
		msg, err := p.M.Recv(CtxBootstrap, transport.AnySource, tagGather, p.Cancel)
		if err != nil {
			return nil, cost, err
		}
		err = decodeFrag(msg.Data, frag)
		msg.Release() // decode copied every address
		if err != nil {
			return nil, cost, err
		}
		cost.Rounds++
	}
	var table Table
	if p.Rank == 0 {
		table = make(Table, p.N)
		for r, a := range frag {
			table[r] = a
		}
		for r, a := range table {
			if a == transport.NilAddr {
				return nil, cost, fmt.Errorf("bootstrap: rank %d missing from gathered table", r)
			}
		}
	} else {
		data := encodeFrag(frag)
		if err := p.EP.Send(addrOf(treeParent(p.Rank)), transport.Msg{
			Src: int32(p.Rank), Tag: tagGather, Ctx: CtxBootstrap, Epoch: p.Epoch,
			Kind: transport.KindCtl, Data: data,
		}); err != nil {
			return nil, cost, err
		}
		cost.ProcMsgs++
		cost.ProcBytes += len(data)

		// Bcast phase: receive the full table from the parent.
		msg, err := p.M.Recv(CtxBootstrap, int32(treeParent(p.Rank)), tagBcast, p.Cancel)
		if err != nil {
			return nil, cost, err
		}
		cost.Rounds++
		full := map[int]transport.Addr{}
		err = decodeFrag(msg.Data, full)
		msg.Release()
		if err != nil {
			return nil, cost, err
		}
		table = make(Table, p.N)
		for r, a := range full {
			table[r] = a
		}
	}

	// Forward the table to children.
	if len(children) > 0 {
		full := map[int]transport.Addr{}
		for r, a := range table {
			full[r] = a
		}
		data := encodeFrag(full)
		for _, c := range children {
			if err := p.EP.Send(addrOf(c), transport.Msg{
				Src: int32(p.Rank), Tag: tagBcast, Ctx: CtxBootstrap, Epoch: p.Epoch,
				Kind: transport.KindCtl, Data: data,
			}); err != nil {
				return nil, cost, err
			}
			cost.ProcMsgs++
			cost.ProcBytes += len(data)
		}
	}
	return table, cost, nil
}

// KVSExchange performs the PMI-style exchange used by the MPI
// baseline: put own endpoint, fence, then one get per peer. The n²
// aggregate coordinator operations are what make MPI_Init slower than
// FMI_Init in Fig 14.
func KVSExchange(p Proc) (Table, Cost, error) {
	var cost Cost
	p.Coord.Put(fmt.Sprintf("%s/kvs/%d", p.Key, p.Rank), []byte(p.Addr))
	cost.CoordOps++
	if err := p.Coord.Barrier(p.Key+"/fence", p.Rank, p.N, p.Cancel); err != nil {
		return nil, cost, err
	}
	cost.CoordOps++
	table := make(Table, p.N)
	for r := 0; r < p.N; r++ {
		v, err := p.Coord.Get(fmt.Sprintf("%s/kvs/%d", p.Key, r), p.Cancel)
		if err != nil {
			return nil, cost, err
		}
		cost.CoordOps++
		table[r] = transport.Addr(v)
	}
	return table, cost, nil
}

// encodeFrag serialises rank→addr pairs as
// (u32 rank | u32 len | addr bytes)*.
func encodeFrag(frag map[int]transport.Addr) []byte {
	var out []byte
	var hdr [8]byte
	for r, a := range frag {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(r))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(a)))
		out = append(out, hdr[:]...)
		out = append(out, a...)
	}
	return out
}

func decodeFrag(data []byte, into map[int]transport.Addr) error {
	for len(data) > 0 {
		if len(data) < 8 {
			return fmt.Errorf("bootstrap: truncated fragment header")
		}
		r := binary.LittleEndian.Uint32(data[0:])
		n := binary.LittleEndian.Uint32(data[4:])
		data = data[8:]
		if uint32(len(data)) < n {
			return fmt.Errorf("bootstrap: truncated fragment body")
		}
		into[int(r)] = transport.Addr(data[:n])
		data = data[n:]
	}
	return nil
}
