// Package transport provides the low-level communication substrate for
// the FMI runtime: ordered, framed message delivery between process
// endpoints plus explicitly monitored connections that surface
// *disconnect events* when a peer dies or closes.
//
// Two implementations are provided:
//
//   - ChanNetwork: an in-process network. This is the default and
//     stands in for the low-latency InfiniBand verbs / PSM path of the
//     paper. Its Options model the only ibverbs property FMI relies
//     on: a peer's death is observed on monitored connections after
//     DetectDelay (~0.2 s on real ibverbs), and an explicit close is
//     observed after PropDelay.
//
//   - TCPNetwork: a real TCP/IP network over loopback using the net
//     package, analogous to the PMGR TCP plane of the paper.
//
// Both deliver into the same receive side: one lock-free ring per
// source on the receiving endpoint (a ChanNetwork sender publishes to
// it directly, a TCPNetwork socket reader publishes what it decodes),
// drained by the endpoint's Matcher.
//
// Semantics shared by both, chosen to match the paper's observations
// about PSM (§IV-C): sending to a dead peer does NOT return an error —
// the message is silently dropped. Failures are only observable through
// disconnect events on monitored connections (the log-ring overlay) or
// through the process manager. Message order is preserved per
// (sender, receiver) pair.
package transport

import (
	"errors"
	"time"

	"fmi/internal/bufpool"
)

// Addr identifies an endpoint. For ChanNetwork it is a synthetic id;
// for TCPNetwork it is the listener's host:port.
type Addr string

// NilAddr is the zero address.
const NilAddr Addr = ""

// Message kinds, carried for accounting/debugging; matching is done on
// (ctx, src, tag) by the upper layer.
const (
	KindUser byte = iota
	KindColl
	KindCkpt
	KindCtl
)

// Msg flags.
const (
	// FlagReplay marks a message re-sent from a sender-based message
	// log during localized recovery; it carries the original sequence
	// number so receivers that already consumed the original suppress
	// the duplicate.
	FlagReplay byte = 1 << iota
)

// Msg is one framed message. Epoch is the sender's recovery epoch; the
// receiver discards messages from older epochs (paper §IV-D's stale
// message elimination). Seq, when non-zero, is the per-(sender,
// receiver) data-plane sequence number assigned by the sender's
// message log (local recovery mode); 0 marks unsequenced control
// traffic exempt from duplicate suppression.
type Msg struct {
	Src   int32  // sender's world rank
	Tag   int32  // message tag (negative tags reserved for runtime)
	Ctx   uint32 // communicator context id
	Epoch uint32 // sender's epoch
	Seq   uint64 // per-(src, dst) sequence number; 0 = unsequenced
	View  uint64 // sender's membership view version; 0 = unstamped
	Kind  byte
	Flags byte
	Data  []byte

	// pool, when non-nil, is the arena that owns Data. The transport
	// stamps it on the frame copy it makes at Send (chan) or read
	// (TCP); whoever consumes the message must end its lifecycle with
	// exactly one Release (recycle) or Detach (keep the bytes).
	pool *bufpool.Arena
}

// Release returns the message's pooled payload to its arena. Callers
// must not touch m.Data afterwards. Safe on unpooled messages (no-op).
// Call it at every point a received or queued message is consumed and
// its bytes are NOT retained: drops, duplicate suppression, reduction
// folds, sync-barrier payloads.
func (m *Msg) Release() {
	if m.pool != nil {
		m.pool.Put(m.Data)
		m.pool = nil
		m.Data = nil
	}
}

// Detach surrenders the payload to the caller: the buffer permanently
// leaves the arena economy (it will be garbage-collected, never
// reused) and is safe to retain forever. Returns m.Data. Use it when
// a payload escapes to application code or long-lived runtime state.
func (m *Msg) Detach() []byte {
	d := m.Data
	if m.pool != nil {
		m.pool.Detach(d)
		m.pool = nil
	}
	return d
}

// Errors returned by transports.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnreachable = errors.New("transport: peer unreachable")
)

// Options configure failure-observation timing.
type Options struct {
	// DetectDelay is how long after a process dies its peers observe
	// a disconnect event on monitored connections (ibverbs observed
	// ~0.2 s in the paper; tests use ~1 ms).
	DetectDelay time.Duration
	// PropDelay is how long after an explicit Conn.Close the remote
	// side observes the disconnect (the log-ring propagation hop cost).
	PropDelay time.Duration
	// MsgDelay is a simulated one-way per-message delivery latency for
	// ChanNetwork (0 = instant delivery, the default). Sends still
	// return immediately and messages to one destination still arrive
	// in order, but each is published to the destination's ring
	// MsgDelay after it was sent. It models interconnect latency so
	// that round-count differences between collective algorithms are
	// observable on the in-process substrate, where delivery is
	// otherwise free. TCPNetwork ignores it (TCP has real latency).
	MsgDelay time.Duration
	// Pool, when non-nil, supplies the buffer arena for frame payload
	// copies (chan Send) and frame reads (TCP). nil disables pooling:
	// every frame allocates, messages never need releasing.
	Pool *bufpool.Arena
	// RingSlots is the per-source ring capacity (rounded up to a power
	// of two; 0 means a default of 256).
	RingSlots int
	// Endpoints is a sizing hint: the number of endpoints the caller
	// expects to create on the network (0 = unknown).
	Endpoints int
}

func (o Options) ringSlots() int {
	if o.RingSlots <= 0 {
		return defaultRingSlots
	}
	return o.RingSlots
}

// Conn is a monitored connection between two endpoints. The log-ring
// overlay uses Conns purely for their disconnect events: Closed fires
// when the peer dies (after DetectDelay) or closes (after PropDelay).
type Conn interface {
	// Local and Remote return the two endpoint addresses.
	Local() Addr
	Remote() Addr
	// Closed is closed once the connection is down from this side's
	// point of view.
	Closed() <-chan struct{}
	// Close tears the connection down; the remote side observes it
	// after PropDelay. Idempotent.
	Close() error
}

// Endpoint is a process's attachment to the network.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() Addr
	// Send delivers m to the endpoint at 'to'. It preserves order per
	// destination, blocks only when the pair's queue is full, and
	// silently drops the message if the peer is dead or unknown
	// (matching PSM semantics). It returns ErrClosed only if this
	// endpoint itself is closed.
	Send(to Addr, m Msg) error
	// Bell, Pump and AddWaiter are the receive side; the endpoint's
	// Matcher is the intended (single) consumer. Bell is a 1-slot
	// doorbell tapped when the consumer must pump without being asked:
	// a frame arrived while a receiver is parked, a source's ring is
	// full, or the endpoint died.
	Bell() <-chan struct{}
	// Pump hands every queued inbound frame to fn in per-(sender,
	// receiver) FIFO order. Concurrent pumps are safe: one drains, the
	// others return at once and the drainer picks up what they came
	// for. It reports false once the endpoint is dead.
	Pump(fn func(Msg)) bool
	// AddWaiter adjusts the count of receivers parked (or about to
	// park) waiting for a match. Producers tap the bell per frame only
	// while the count is non-zero; a waiter must therefore pump once
	// more after incrementing and before parking, so a publish that
	// read the count as zero is seen by that final pump.
	AddWaiter(delta int32)
	// Connect establishes a monitored connection to peer; it fails
	// with ErrUnreachable if the peer is dead.
	Connect(peer Addr) (Conn, error)
	// Accept yields incoming monitored connections.
	Accept() <-chan Conn
	// Close shuts the endpoint down gracefully.
	Close() error
}

// Flusher is optionally implemented by endpoints whose send path
// queues frames behind a writer (TCPNetwork). FlushBarrier
// blocks — bounded by a short internal timeout — until queued
// outbound frames have reached the wire. The Matcher invokes it at
// every epoch fence (AdvanceEpoch), making fences explicit flush
// boundaries.
type Flusher interface {
	FlushBarrier()
}

// Network creates endpoints. die, if non-nil, kills the endpoint
// abruptly when closed (the process kill channel): peers observe
// disconnects after DetectDelay and in-flight messages may be lost.
type Network interface {
	NewEndpoint(die <-chan struct{}) (Endpoint, error)
}

// NodePlacer is optionally implemented by networks that are told
// which node an endpoint's process runs on. The id is placement
// metadata only: every pair uses the same link wherever its ends are,
// and NewEndpoint is NewEndpointOnNode(-1, die).
type NodePlacer interface {
	NewEndpointOnNode(node int, die <-chan struct{}) (Endpoint, error)
}
