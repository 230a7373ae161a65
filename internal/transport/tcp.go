package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fmi/internal/bufpool"
)

// TCPNetwork is a Network over real TCP sockets on loopback, built on
// the standard net package. It exists to exercise the runtime over a
// genuine byte-stream transport (the paper's PMGR plane runs over
// TCP/IP) and to validate that nothing in the runtime depends on the
// in-process shortcut. Only the wire differs: each inbound
// connection's reader publishes the frames it decodes into the same
// per-source rings ChanNetwork senders publish to directly.
//
// Failure observation on TCP is the socket close itself, so
// DetectDelay/PropDelay are not simulated here; disconnects fire as
// soon as the OS reports them.
type TCPNetwork struct {
	opts Options
}

// NewTCPNetwork creates a TCP network with the given options.
func NewTCPNetwork(opts Options) *TCPNetwork { return &TCPNetwork{opts: opts} }

// Handshake bytes distinguishing the two planes multiplexed over the
// same listener.
const (
	planeMsg  = 'M'
	planeConn = 'C'
)

// NewEndpoint opens a loopback listener for the endpoint.
func (n *TCPNetwork) NewEndpoint(die <-chan struct{}) (Endpoint, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	ep := &tcpEndpoint{
		opts:     n.opts,
		addr:     Addr(l.Addr().String()),
		listener: l,
		accept:   make(chan Conn, 64),
		dead:     make(chan struct{}),
		msgConns: make(map[Addr]*msgConn),
	}
	ep.ingress.init(n.opts.ringSlots(), ep.dead)
	go ep.acceptLoop()
	if die != nil {
		go func() {
			select {
			case <-die:
				ep.Close()
			case <-ep.dead:
			}
		}()
	}
	return ep, nil
}

type tcpEndpoint struct {
	ingress // the receive side: Bell, Pump, AddWaiter

	opts     Options
	addr     Addr
	listener net.Listener
	accept   chan Conn

	mu       sync.Mutex
	msgConns map[Addr]*msgConn
	conns    []*tcpConn
	deadOnce sync.Once
	dead     chan struct{}
}

// msgConnQCap bounds the per-connection outbound queue; a full queue
// applies backpressure to senders, mirroring a full NIC send queue.
const msgConnQCap = 256

// tcpBufSize sizes both bufio buffers of a message connection. It is
// a trade measured on loopback (2 cores, medians of 7): a burst of
// small frames wants a buffer that holds several of them — a 2 KiB
// flood costs 3.3 us/frame at the 4 KiB bufio default (two frames with
// headers do not fit, so every frame is its own write and read), 2.6
// at 8 KiB, 2.4 at 32 KiB — while a payload larger than the buffer is
// copied through it up to the buffer's size on each side, so a 64 KiB
// ping-pong costs the same at 4 and 8 KiB, +20 % at 16 KiB and +40 %
// at 32 KiB (BenchmarkTCPFlood, BenchmarkTCPSendRecv).
const tcpBufSize = 8 << 10

// msgConn is the message plane to one peer: a socket plus a dedicated
// writer goroutine that writes a gathered burst of queued frames with
// one buffered flush instead of a write+flush per Send. hdr is the
// connection-scoped header scratch, touched only by the writer
// goroutine, so frame encoding allocates nothing.
type msgConn struct {
	c net.Conn
	w *bufio.Writer

	q        chan Msg
	pending  atomic.Int64 // frames enqueued but not yet flushed to the socket
	deadOnce sync.Once
	dead     chan struct{}

	hdr [frameHeaderSize]byte
}

func (mc *msgConn) kill() {
	mc.deadOnce.Do(func() { close(mc.dead) })
}

// drainQ recycles frames stranded in the queue after the connection
// died (they are lost on the wire; PSM semantics drop them silently).
func (mc *msgConn) drainQ() {
	for {
		select {
		case m := <-mc.q:
			m.Release()
			mc.pending.Add(-1)
		default:
			return
		}
	}
}

func (ep *tcpEndpoint) Addr() Addr          { return ep.addr }
func (ep *tcpEndpoint) Accept() <-chan Conn { return ep.accept }

func (ep *tcpEndpoint) isDead() bool {
	select {
	case <-ep.dead:
		return true
	default:
		return false
	}
}

func (ep *tcpEndpoint) acceptLoop() {
	for {
		c, err := ep.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go ep.handleIncoming(c)
	}
}

func (ep *tcpEndpoint) handleIncoming(c net.Conn) {
	var plane [1]byte
	if _, err := io.ReadFull(c, plane[:]); err != nil {
		c.Close()
		return
	}
	peer, err := readString(c)
	if err != nil {
		c.Close()
		return
	}
	switch plane[0] {
	case planeMsg:
		ep.msgReadLoop(c, Addr(peer))
	case planeConn:
		tc := newTCPConn(ep.addr, Addr(peer), c)
		ep.mu.Lock()
		dead := ep.isDead()
		if !dead {
			ep.conns = append(ep.conns, tc)
		}
		ep.mu.Unlock()
		if dead {
			c.Close()
			return
		}
		select {
		case ep.accept <- tc:
		case <-ep.dead:
			c.Close()
		}
	default:
		c.Close()
	}
}

// msgReadLoop decodes frames from one peer's connection and publishes
// them to that peer's ring until the connection or the endpoint dies.
func (ep *tcpEndpoint) msgReadLoop(c net.Conn, peer Addr) {
	defer c.Close()
	ring := ep.ringFor(peer)
	if ring == nil {
		return
	}
	r := bufio.NewReaderSize(c, tcpBufSize)
	for {
		m, err := readFrame(r, ep.opts.Pool)
		if err != nil || !ring.publish(m, nil) {
			return
		}
	}
}

// Send queues m for the peer's message plane, dialing lazily. The
// connection's writer goroutine encodes and flushes asynchronously,
// one flush per gathered burst; write errors from dead peers tear the
// connection down silently, matching PSM semantics. The payload is
// copied into a pooled buffer at enqueue (eager-send: the caller may
// reuse its buffer once Send returns).
func (ep *tcpEndpoint) Send(to Addr, m Msg) error {
	if ep.isDead() {
		return ErrClosed
	}
	mc, err := ep.getMsgConn(to)
	if err != nil {
		return nil // unreachable: drop
	}
	if len(m.Data) > 0 {
		cp := ep.opts.Pool.Get(len(m.Data))
		copy(cp, m.Data)
		m.Data = cp
		m.pool = ep.opts.Pool
	}
	mc.pending.Add(1)
	select {
	case mc.q <- m:
		return nil
	case <-mc.dead:
		m.Release() // connection died under us: drop
		mc.pending.Add(-1)
		return nil
	case <-ep.dead:
		m.Release()
		mc.pending.Add(-1)
		return ErrClosed
	}
}

// writeLoop is the connection's writer goroutine: it writes whatever
// burst is sitting in the queue through the shared bufio.Writer and
// flushes once the queue is empty — so a burst of k sends costs one
// flush, while a lone send still hits the wire immediately (no added
// latency, which also keeps collectives deadlock-free: a frame a peer
// is blocked on is never held back waiting for more traffic).
func (ep *tcpEndpoint) writeLoop(to Addr, mc *msgConn) {
	for {
		select {
		case m := <-mc.q:
			n := int64(0)
			var err error
		burst:
			for {
				n++
				if err == nil {
					err = writeFrame(mc.w, &mc.hdr, m)
				}
				m.Release() // written or abandoned on a write error (PSM semantics)
				select {
				case m = <-mc.q:
				default:
					break burst
				}
			}
			if err == nil {
				err = mc.w.Flush()
			}
			mc.pending.Add(-n)
			if err != nil {
				ep.dropMsgConn(to, mc)
				mc.drainQ()
				return
			}
		case <-mc.dead:
			mc.drainQ()
			return
		case <-ep.dead:
			mc.drainQ()
			return
		}
	}
}

// FlushBarrier blocks until every queued outbound frame has been
// flushed to its socket (or the endpoint/conn died), bounded by a
// short timeout so a wedged peer cannot stall an epoch fence. The
// matcher calls this at AdvanceEpoch: an epoch fence is an explicit
// flush boundary for the queued writers.
func (ep *tcpEndpoint) FlushBarrier() {
	ep.mu.Lock()
	conns := make([]*msgConn, 0, len(ep.msgConns))
	for _, mc := range ep.msgConns {
		conns = append(conns, mc)
	}
	ep.mu.Unlock()
	deadline := time.Now().Add(100 * time.Millisecond)
	for _, mc := range conns {
		for mc.pending.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func (ep *tcpEndpoint) getMsgConn(to Addr) (*msgConn, error) {
	ep.mu.Lock()
	if mc, ok := ep.msgConns[to]; ok {
		ep.mu.Unlock()
		return mc, nil
	}
	ep.mu.Unlock()

	c, err := net.Dial("tcp", string(to))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(c, tcpBufSize)
	if err := writeHandshake(w, planeMsg, string(ep.addr)); err != nil {
		c.Close()
		return nil, err
	}
	mc := &msgConn{c: c, w: w, q: make(chan Msg, msgConnQCap), dead: make(chan struct{})}

	ep.mu.Lock()
	if ep.isDead() {
		ep.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if prev, ok := ep.msgConns[to]; ok { // lost a race; reuse winner
		ep.mu.Unlock()
		c.Close()
		return prev, nil
	}
	ep.msgConns[to] = mc
	ep.mu.Unlock()
	go ep.writeLoop(to, mc)
	return mc, nil
}

func (ep *tcpEndpoint) dropMsgConn(to Addr, mc *msgConn) {
	ep.mu.Lock()
	if ep.msgConns[to] == mc {
		delete(ep.msgConns, to)
	}
	ep.mu.Unlock()
	mc.kill()
	mc.c.Close()
}

// Connect dials a monitored connection to peer.
func (ep *tcpEndpoint) Connect(peer Addr) (Conn, error) {
	if ep.isDead() {
		return nil, ErrClosed
	}
	c, err := net.Dial("tcp", string(peer))
	if err != nil {
		return nil, ErrUnreachable
	}
	w := bufio.NewWriter(c)
	if err := writeHandshake(w, planeConn, string(ep.addr)); err != nil {
		c.Close()
		return nil, ErrUnreachable
	}
	tc := newTCPConn(ep.addr, peer, c)
	ep.mu.Lock()
	if ep.isDead() {
		ep.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	ep.conns = append(ep.conns, tc)
	ep.mu.Unlock()
	return tc, nil
}

// Close shuts the endpoint down: listener and all connections close
// and the rings are torn down.
func (ep *tcpEndpoint) Close() error {
	ep.deadOnce.Do(func() {
		ep.mu.Lock()
		close(ep.dead)
		conns := ep.conns
		ep.conns = nil
		msgConns := ep.msgConns
		ep.msgConns = map[Addr]*msgConn{}
		ep.mu.Unlock()

		ep.listener.Close()
		for _, mc := range msgConns {
			mc.kill()
			mc.c.Close()
		}
		for _, tc := range conns {
			tc.Close()
		}
		ep.ingress.teardown()
	})
	return nil
}

// tcpConn is a monitored connection over a TCP socket. A reader
// goroutine watches for EOF/reset and fires Closed.
type tcpConn struct {
	local, remote Addr
	c             net.Conn
	once          sync.Once
	closed        chan struct{}
}

func newTCPConn(local, remote Addr, c net.Conn) *tcpConn {
	tc := &tcpConn{local: local, remote: remote, c: c, closed: make(chan struct{})}
	go func() {
		var buf [1]byte
		for {
			if _, err := c.Read(buf[:]); err != nil {
				tc.fire()
				return
			}
		}
	}()
	return tc
}

func (c *tcpConn) Local() Addr             { return c.local }
func (c *tcpConn) Remote() Addr            { return c.remote }
func (c *tcpConn) Closed() <-chan struct{} { return c.closed }

func (c *tcpConn) Close() error {
	c.fire()
	return c.c.Close()
}

func (c *tcpConn) fire() {
	c.once.Do(func() { close(c.closed) })
}

// Frame format: u32 dataLen | u8 kind | u8 flags | i32 src | i32 tag |
// u32 ctx | u32 epoch | u64 seq | u64 view | data. All little-endian.
const frameHeaderSize = 4 + 1 + 1 + 4 + 4 + 4 + 4 + 8 + 8

// writeFrame encodes m through hdr, the caller-owned header scratch
// (connection-scoped on the send path — no per-frame allocation).
func writeFrame(w *bufio.Writer, hdr *[frameHeaderSize]byte, m Msg) error {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(m.Data)))
	hdr[4] = m.Kind
	hdr[5] = m.Flags
	binary.LittleEndian.PutUint32(hdr[6:], uint32(m.Src))
	binary.LittleEndian.PutUint32(hdr[10:], uint32(m.Tag))
	binary.LittleEndian.PutUint32(hdr[14:], m.Ctx)
	binary.LittleEndian.PutUint32(hdr[18:], m.Epoch)
	binary.LittleEndian.PutUint64(hdr[22:], m.Seq)
	binary.LittleEndian.PutUint64(hdr[30:], m.View)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(m.Data)
	return err
}

// readFrame decodes one frame, drawing the payload buffer from pool
// (nil pool = plain make). The returned Msg carries the pool so the
// consumer can recycle the buffer with Release.
func readFrame(r *bufio.Reader, pool *bufpool.Arena) (Msg, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Msg{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	m := Msg{
		Kind:  hdr[4],
		Flags: hdr[5],
		Src:   int32(binary.LittleEndian.Uint32(hdr[6:])),
		Tag:   int32(binary.LittleEndian.Uint32(hdr[10:])),
		Ctx:   binary.LittleEndian.Uint32(hdr[14:]),
		Epoch: binary.LittleEndian.Uint32(hdr[18:]),
		Seq:   binary.LittleEndian.Uint64(hdr[22:]),
		View:  binary.LittleEndian.Uint64(hdr[30:]),
	}
	if n > 0 {
		m.Data = pool.Get(int(n))
		m.pool = pool
		if _, err := io.ReadFull(r, m.Data); err != nil {
			m.Release()
			return Msg{}, err
		}
	}
	return m, nil
}

func writeHandshake(w *bufio.Writer, plane byte, self string) error {
	if err := w.WriteByte(plane); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(self)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.WriteString(self); err != nil {
		return err
	}
	return w.Flush()
}

func readString(r io.Reader) (string, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > 1<<16 {
		return "", fmt.Errorf("transport: handshake string too long (%d)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
