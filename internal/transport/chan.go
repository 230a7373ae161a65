package transport

import (
	"fmt"
	"sync"
	"time"
)

// ChanNetwork is an in-process Network. It is the default substrate: a
// stand-in for the InfiniBand data plane with configurable
// failure-observation delays. Every (sender, receiver) pair exchanges
// frames over one lock-free ring owned by the receiver, created on the
// pair's first send; with MsgDelay > 0 a per-sender delay queue sits
// in front of the rings as the simulated wire.
type ChanNetwork struct {
	opts Options

	mu     sync.Mutex
	eps    map[Addr]*chanEndpoint
	nextID int
}

// NewChanNetwork creates an empty in-process network.
func NewChanNetwork(opts Options) *ChanNetwork {
	return &ChanNetwork{opts: opts, eps: make(map[Addr]*chanEndpoint, opts.Endpoints)}
}

// NewEndpoint creates an endpoint on the network. If die is non-nil,
// closing it kills the endpoint abruptly.
func (n *ChanNetwork) NewEndpoint(die <-chan struct{}) (Endpoint, error) {
	return n.NewEndpointOnNode(-1, die)
}

// delayQCap bounds the frames one sender has in flight on the
// simulated wire; a full queue backpressures Send like a full NIC
// send queue.
const delayQCap = 4096

// NewEndpointOnNode implements NodePlacer; the node id does not change
// how the endpoint's pairs are linked.
func (n *ChanNetwork) NewEndpointOnNode(_ int, die <-chan struct{}) (Endpoint, error) {
	ep := &chanEndpoint{
		net:    n,
		accept: make(chan Conn, 64),
		dead:   make(chan struct{}),
	}
	ep.ingress.init(n.opts.ringSlots(), ep.dead)
	if n.opts.MsgDelay > 0 {
		ep.delayQ = make(chan delayedMsg, delayQCap)
	}

	n.mu.Lock()
	n.nextID++
	ep.addr = Addr(fmt.Sprintf("chan-%d", n.nextID))
	n.eps[ep.addr] = ep
	n.mu.Unlock()

	if ep.delayQ != nil {
		go ep.delayLoop()
	}
	if die != nil {
		go func() {
			select {
			case <-die:
				ep.kill()
			case <-ep.dead:
			}
		}()
	}
	return ep, nil
}

func (n *ChanNetwork) lookup(a Addr) *chanEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[a]
}

func (n *ChanNetwork) remove(a Addr) {
	n.mu.Lock()
	delete(n.eps, a)
	n.mu.Unlock()
}

type chanEndpoint struct {
	ingress // the receive side: Bell, Pump, AddWaiter

	net    *ChanNetwork
	addr   Addr
	accept chan Conn
	delayQ chan delayedMsg // non-nil iff Options.MsgDelay > 0

	mu       sync.Mutex
	conns    []*chanConnEnd
	deadOnce sync.Once
	dead     chan struct{} // closed on kill/close

	// routes caches destination addr -> *ring (this sender's ring on
	// that endpoint) so the hot path is one sync.Map load. Addresses
	// are never reused, so entries cannot go stale into wrongness: a
	// dead destination's ring stays poisoned.
	routes sync.Map
}

func (ep *chanEndpoint) Addr() Addr          { return ep.addr }
func (ep *chanEndpoint) Accept() <-chan Conn { return ep.accept }

func (ep *chanEndpoint) isDead() bool {
	select {
	case <-ep.dead:
		return true
	default:
		return false
	}
}

// Send delivers m to 'to'. Messages to dead or unknown endpoints are
// dropped silently (PSM semantics); a full ring blocks until space,
// destination death, or sender death.
//
// MPI eager-send semantics: the caller may reuse its buffer as soon as
// Send returns, so the payload is copied here (on a real interconnect
// the NIC has DMA'd the eager buffer by then).
func (ep *chanEndpoint) Send(to Addr, m Msg) error {
	if ep.isDead() {
		return ErrClosed
	}
	r := ep.route(to)
	if r == nil {
		return nil // silent drop
	}
	if len(m.Data) > 0 {
		cp := ep.net.opts.Pool.Get(len(m.Data))
		copy(cp, m.Data)
		m.Data = cp
		m.pool = ep.net.opts.Pool
	}
	if ep.delayQ != nil {
		// Simulated wire latency: queue for delivery MsgDelay from now.
		// One goroutine drains the queue in send order, so per-pair
		// FIFO is preserved and a burst of sends pipelines (all arrive
		// ~MsgDelay later) instead of serialising.
		select {
		case ep.delayQ <- delayedMsg{r: r, m: m, due: time.Now().Add(ep.net.opts.MsgDelay)}:
			return nil
		case <-ep.dead:
			m.Release()
			return ErrClosed
		}
	}
	if !r.publish(m, ep.dead) && ep.isDead() {
		return ErrClosed
	}
	return nil
}

// route resolves this sender's ring on the endpoint at 'to'; nil means
// drop. An unknown destination is not cached (it may simply not have
// registered yet).
func (ep *chanEndpoint) route(to Addr) *ring {
	if v, ok := ep.routes.Load(to); ok {
		return v.(*ring)
	}
	dst := ep.net.lookup(to)
	if dst == nil {
		return nil
	}
	r := dst.ringFor(ep.addr)
	if r == nil {
		return nil // dst is dying
	}
	ep.routes.Store(to, r)
	return r
}

// delayedMsg is one in-flight message waiting out the simulated wire
// latency.
type delayedMsg struct {
	r   *ring
	m   Msg
	due time.Time
}

// delayLoop publishes queued messages once their latency has elapsed.
// Deadlines are monotone in queue order (every message waits the same
// MsgDelay), so waiting on the head never delays a message behind it.
func (ep *chanEndpoint) delayLoop() {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case dm := <-ep.delayQ:
			if d := time.Until(dm.due); d > 0 {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-ep.dead:
					dm.m.Release()
					ep.drainDelayQ()
					return
				}
			}
			dm.r.publish(dm.m, ep.dead)
		case <-ep.dead:
			ep.drainDelayQ()
			return
		}
	}
}

// drainDelayQ recycles frames stranded in the latency queue when the
// endpoint dies (they were lost on the wire; PSM drops them silently,
// we just hand the copies back to the arena).
func (ep *chanEndpoint) drainDelayQ() {
	for {
		select {
		case dm := <-ep.delayQ:
			dm.m.Release()
		default:
			return
		}
	}
}

// Connect establishes a monitored connection to peer.
func (ep *chanEndpoint) Connect(peer Addr) (Conn, error) {
	if ep.isDead() {
		return nil, ErrClosed
	}
	dst := ep.net.lookup(peer)
	if dst == nil || dst.isDead() {
		return nil, ErrUnreachable
	}
	local := &chanConnEnd{local: ep.addr, remote: peer, closed: make(chan struct{}), opts: ep.net.opts}
	remote := &chanConnEnd{local: peer, remote: ep.addr, closed: make(chan struct{}), opts: ep.net.opts}
	local.peer, remote.peer = remote, local

	ep.addConn(local)
	if !dst.addConn(remote) {
		// Peer died in the window; report unreachable.
		local.fire(0)
		return nil, ErrUnreachable
	}
	select {
	case dst.accept <- remote:
	case <-dst.dead:
		local.fire(0)
		return nil, ErrUnreachable
	}
	return local, nil
}

func (ep *chanEndpoint) addConn(c *chanConnEnd) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.isDead() {
		return false
	}
	ep.conns = append(ep.conns, c)
	return true
}

// Close shuts down gracefully: peers observe conn closes after
// PropDelay.
func (ep *chanEndpoint) Close() error {
	ep.shutdown(ep.net.opts.PropDelay)
	return nil
}

// kill is abrupt death: peers observe conn closes after DetectDelay.
func (ep *chanEndpoint) kill() {
	ep.shutdown(ep.net.opts.DetectDelay)
}

func (ep *chanEndpoint) shutdown(remoteDelay time.Duration) {
	ep.deadOnce.Do(func() {
		ep.mu.Lock()
		close(ep.dead)
		conns := ep.conns
		ep.conns = nil
		ep.mu.Unlock()
		ep.net.remove(ep.addr)
		ep.ingress.teardown()
		for _, c := range conns {
			c.fire(0)                // local side sees it immediately
			c.peer.fire(remoteDelay) // remote observes after delay
		}
	})
}

// chanConnEnd is one side of a monitored connection.
type chanConnEnd struct {
	local, remote Addr
	peer          *chanConnEnd
	opts          Options

	once   sync.Once
	closed chan struct{}
}

func (c *chanConnEnd) Local() Addr             { return c.local }
func (c *chanConnEnd) Remote() Addr            { return c.remote }
func (c *chanConnEnd) Closed() <-chan struct{} { return c.closed }

// Close tears the connection down; the remote side observes it after
// PropDelay (this is the log-ring propagation mechanism).
func (c *chanConnEnd) Close() error {
	c.fire(0)
	c.peer.fire(c.opts.PropDelay)
	return nil
}

func (c *chanConnEnd) fire(after time.Duration) {
	c.once.Do(func() {
		if after <= 0 {
			close(c.closed)
			return
		}
		time.AfterFunc(after, func() { close(c.closed) })
	})
}
