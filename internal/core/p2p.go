package core

import (
	"fmt"

	"fmi/internal/transport"
)

// sendRaw transmits payload to a world rank on the given (ctx, tag).
// Messages to dead peers vanish silently at the transport (PSM
// semantics) and are repaired by rollback — or, in local mode, by
// replay from the sender-based message log: every data-plane send is
// assigned a per-(sender, receiver) sequence number and a copy is
// retained until a checkpoint commit acknowledges it. The transport
// copies payload, so the caller may reuse it at once: a user payload
// once, into the buffer the receiving application keeps (keepFlag).
func (p *Proc) sendRaw(world int, ctx uint32, tag int32, kind byte, payload []byte) error {
	return p.sendFrame(world, ctx, tag, kind, payload, false)
}

// forwardRaw is sendRaw for a payload that is an arena frame this rank
// owns (a received ring chain, a buffer from p.pool): the transport
// carries the frame itself instead of a copy and owns it from the call
// on, whatever the outcome — the caller must not touch it afterwards.
func (p *Proc) forwardRaw(world int, ctx uint32, tag int32, kind byte, payload []byte) error {
	return p.sendFrame(world, ctx, tag, kind, payload, true)
}

// sendFrame is the one send path behind sendRaw and forwardRaw.
func (p *Proc) sendFrame(world int, ctx uint32, tag int32, kind byte, payload []byte, owned bool) error {
	if p.replicaOn() {
		// Replica mode: resolve through the registry and mirror to both
		// endpoints of the destination pair (replica.go).
		return p.sendReplica(world, ctx, tag, kind, payload, owned)
	}
	addr, err := p.addrOf(world)
	if err != nil {
		if owned {
			p.pool.Put(payload)
		}
		return err
	}
	var seq uint64
	if p.seqActive {
		seq = p.log.Record(world, ctx, tag, kind, payload) // the log keeps its own copy
	}
	msg := transport.Msg{
		Src:   int32(p.rank),
		Tag:   tag,
		Ctx:   ctx,
		Epoch: p.epoch,
		View:  p.viewVersion(),
		Seq:   seq,
		Kind:  kind,
		Flags: keepFlag(kind),
		Data:  payload,
	}
	if owned {
		msg.Handoff(p.pool)
	}
	return p.gen.ep.Send(addr, msg)
}

// keepFlag marks every user payload FlagKeep: the receiver hands it to
// application code, so the transport delivers it in a buffer of its
// own rather than an arena frame the application would never release.
// Runtime traffic (collective, checkpoint, control) stays on the arena.
func keepFlag(kind byte) byte {
	if kind == transport.KindUser {
		return transport.FlagKeep
	}
	return 0
}

// recvRaw blocks for a matching message, aborting on failure
// notification or kill (via the generation's merged cancel channel).
// Under ride-through a survivor's receive continues past the epoch
// fence: recover the generation (H1/H2 + replay negotiation), then
// re-post the same receive on the rebuilt matcher — the carried-over
// watermarks and unexpected queue guarantee no loss and no duplicate.
func (p *Proc) recvRaw(ctx uint32, src int32, tag int32) (transport.Msg, error) {
	for {
		g := p.gen
		msg, err := g.m.Recv(ctx, src, tag, g.cancelCh)
		if err == nil {
			return msg, nil
		}
		if err := p.rideThrough(g); err != nil {
			return transport.Msg{}, err
		}
	}
}

// rideThrough handles a receive that generation g failed: a killed
// process unwinds, and without ride-through (the rollback and replica
// protocols) the failure surfaces as ErrFailureDetected for Loop to
// repair. With it, the rank recovers the generation in place — unless
// another receive already rode through this fence and g is gone — and
// the caller re-posts its receive; a fence that fell back to a level-2
// restore — a *global* rollback even in local mode — unwinds to Loop
// instead, since the rolled-back world will never re-send what the
// receive waits for.
func (p *Proc) rideThrough(g *generation) error {
	p.checkAlive()
	if !p.seqActive {
		return ErrFailureDetected
	}
	if g == p.gen {
		p.recover()
	}
	if p.pendingID >= 0 {
		return ErrFailureDetected
	}
	return nil
}

// Send transmits data to the destination rank of the communicator
// with the given user tag (>= 0). It blocks only under backpressure.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.p.checkComm(); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("fmi: user tags must be >= 0 (got %d)", tag)
	}
	world, err := c.WorldRank(dst)
	if err != nil {
		return err
	}
	return c.p.sendRaw(world, c.ctx, int32(tag), transport.KindUser, data)
}

// Recv blocks until a message with the given tag arrives from src
// (comm rank, or AnySource) and returns its payload. The returned
// source is the comm rank of the sender.
func (c *Comm) Recv(src, tag int) (data []byte, from int, err error) {
	if err := c.p.checkComm(); err != nil {
		return nil, -1, err
	}
	if tag < 0 {
		return nil, -1, fmt.Errorf("fmi: user tags must be >= 0 (got %d)", tag)
	}
	srcWorld := transport.AnySource
	if src != AnySource {
		w, err := c.WorldRank(src)
		if err != nil {
			return nil, -1, err
		}
		srcWorld = int32(w)
	}
	msg, err := c.p.recvRaw(c.ctx, srcWorld, int32(tag))
	if err != nil {
		return nil, -1, err
	}
	// A user payload arrives kept (keepFlag): it is the application's
	// outright, outside the arena.
	return msg.Data, c.Translate(int(msg.Src)), nil
}

// Sendrecv posts the receive, performs the send, and waits for the
// receive — the deadlock-free exchange stencil codes use for halo
// swaps.
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int) ([]byte, error) {
	req, err := c.Irecv(src, recvTag)
	if err != nil {
		return nil, err
	}
	if err := c.Send(dst, sendTag, sendData); err != nil {
		return nil, err
	}
	data, _, err := req.Wait()
	return data, err
}

// TryRecv performs a non-blocking matched receive: if a message with
// the given tag from src (or AnySource) has already arrived, it is
// consumed and returned with ok=true; otherwise ok=false without
// blocking (an MPI_Iprobe + MPI_Recv combination).
func (c *Comm) TryRecv(src, tag int) (data []byte, from int, ok bool, err error) {
	if err := c.p.checkComm(); err != nil {
		return nil, -1, false, err
	}
	if tag < 0 {
		return nil, -1, false, fmt.Errorf("fmi: user tags must be >= 0 (got %d)", tag)
	}
	srcWorld := transport.AnySource
	if src != AnySource {
		w, err := c.WorldRank(src)
		if err != nil {
			return nil, -1, false, err
		}
		srcWorld = int32(w)
	}
	msg, got := c.p.gen.m.TryRecv(c.ctx, srcWorld, int32(tag))
	if !got {
		return nil, -1, false, nil
	}
	return msg.Data, c.Translate(int(msg.Src)), true, nil
}

// Request is a pending nonblocking operation. A receive is awaited
// lazily, on the caller's thread inside Wait, in every recovery mode:
// the fence ride-through (recover + re-post) must run on the
// application thread, and no goroutine is parked per receive.
type Request struct {
	c        *Comm
	gen      *generation
	pend     *transport.Pending // nil once complete (and for Isend)
	src, tag int32

	data []byte
	from int
	err  error
}

// Wait blocks until the operation completes and returns its result.
// If the generation was replaced since the receive was posted (a fence
// ridden through), the receive is re-posted on the new matcher; with
// several outstanding same-(src, tag) Irecvs a fence can reorder their
// completion (documented local-mode limitation).
func (r *Request) Wait() (data []byte, from int, err error) {
	for r.pend != nil {
		msg, err := r.pend.Await(r.gen.cancelCh)
		if err == nil {
			r.pend = nil
			r.data, r.from = msg.Data, r.c.Translate(int(msg.Src))
			break
		}
		p := r.c.p
		if err := p.rideThrough(r.gen); err != nil {
			r.pend, r.err = nil, err
			break
		}
		r.gen = p.gen
		if r.pend, err = r.gen.m.PostRecv(r.c.ctx, r.src, r.tag); err != nil {
			r.pend, r.err = nil, ErrFailureDetected
		}
	}
	return r.data, r.from, r.err
}

// Test reports, without blocking, whether the operation has completed
// or — for a receive — its message has arrived (it pumps the matcher);
// Wait then returns at once.
func (r *Request) Test() bool {
	return r.pend == nil || r.pend.Test()
}

// Isend starts a nonblocking send. The transport is eager (buffered),
// so the send is issued immediately to preserve ordering with
// subsequent sends from this rank.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	if err := c.Send(dst, tag, data); err != nil {
		return nil, err
	}
	return &Request{c: c}, nil
}

// Irecv starts a nonblocking receive. The receive is *posted*
// synchronously, so matching follows MPI's posting-order rule even
// when several Irecvs are outstanding.
func (c *Comm) Irecv(src, tag int) (*Request, error) {
	if err := c.p.checkComm(); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("fmi: user tags must be >= 0 (got %d)", tag)
	}
	srcWorld := transport.AnySource
	if src != AnySource {
		w, err := c.WorldRank(src)
		if err != nil {
			return nil, err
		}
		srcWorld = int32(w)
	}
	gen := c.p.gen
	pend, err := gen.m.PostRecv(c.ctx, srcWorld, int32(tag))
	if err != nil {
		return nil, ErrFailureDetected
	}
	return &Request{c: c, gen: gen, pend: pend, src: srcWorld, tag: int32(tag)}, nil
}

// WaitAll waits for all requests, returning the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
