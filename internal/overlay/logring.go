// Package overlay implements the paper's log-ring overlay network for
// scalable failure detection and notification (§IV-C).
//
// In a log-ring each of the n processes opens monitored connections to
// the neighbours base^j positions to its right on the ring (for every
// base^j < n), giving O(log n) connections per process. When a process
// dies, the peers holding connections to it observe disconnect events
// (after the transport's DetectDelay, modelling ibverbs); each notified
// process then closes all of its remaining overlay connections, which
// its neighbours observe as disconnects in turn. The notification
// therefore floods the ring along log-ring edges and reaches every
// process within ⌈⌈log2 n⌉/2⌉ hops.
package overlay

import (
	"fmt"
	"sync"

	"fmi/internal/transport"
)

// OutNeighbors returns the ranks rank+base^j (mod n) for base^j < n —
// the connections a process initiates. base must be >= 2.
func OutNeighbors(rank, n, base int) []int {
	if n <= 1 {
		return nil
	}
	var out []int
	for d := 1; d < n; d *= base {
		out = append(out, (rank+d)%n)
	}
	return out
}

// InNeighbors returns the ranks that initiate connections to rank.
func InNeighbors(rank, n, base int) []int {
	if n <= 1 {
		return nil
	}
	var in []int
	for d := 1; d < n; d *= base {
		in = append(in, ((rank-d)%n+n)%n)
	}
	return in
}

// NotifyHops computes, by BFS over the undirected log-ring graph, the
// number of propagation hops needed for a failure at 'failed' to reach
// every process. Hop 0 notifies the direct neighbours of the failed
// process.
func NotifyHops(n, base, failed int) int {
	if n <= 2 {
		return 0
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	frontier := []int{}
	seed := func(r int) {
		if r != failed && dist[r] < 0 {
			dist[r] = 0
			frontier = append(frontier, r)
		}
	}
	for _, r := range OutNeighbors(failed, n, base) {
		seed(r)
	}
	for _, r := range InNeighbors(failed, n, base) {
		seed(r)
	}
	max := 0
	for len(frontier) > 0 {
		var next []int
		for _, r := range frontier {
			for _, nb := range append(OutNeighbors(r, n, base), InNeighbors(r, n, base)...) {
				if nb != failed && dist[nb] < 0 {
					dist[nb] = dist[r] + 1
					if dist[nb] > max {
						max = dist[nb]
					}
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	for r, d := range dist {
		if r != failed && d < 0 {
			return -1 // disconnected; cannot happen for base >= 2
		}
	}
	return max
}

// TheoreticalMaxHops is the paper's bound ⌈⌈log2 n⌉/2⌉ on the number
// of hops to notify all processes (for base 2).
func TheoreticalMaxHops(n int) int {
	if n <= 2 {
		return 0
	}
	log2 := 0
	for v := n - 1; v > 0; v >>= 1 {
		log2++
	}
	return (log2 + 1) / 2
}

// Notification reports a detected failure.
type Notification struct {
	// Direct is true if the disconnect was observed on a connection to
	// the failed process itself (hop 0) rather than via propagation.
	// The overlay cannot distinguish the two cases (ibverbs semantics),
	// so Direct is always false here; it is kept for the runtime's
	// control-plane notifications.
	Direct bool
}

// Ring is one generation of the log-ring overlay for one process. A
// Ring is built per recovery epoch (H2 state) on a fresh endpoint and
// never reused after a notification or Shutdown.
type Ring struct {
	rank, n, base int

	mu       sync.Mutex
	conns    []transport.Conn
	quiet    bool // Quiesce or Shutdown: disconnects are no longer failures
	stopped  bool // Shutdown: connections closed, watchers released
	notified bool

	notifyCh chan Notification // capacity 1; receives at most one event
	stopCh   chan struct{}
}

// Build connects the log-ring for rank over ep, given the endpoint
// table of the current epoch. It initiates connections to the
// out-neighbours and watches both initiated and accepted connections.
//
// Build returns once all outgoing connections are established. An
// unreachable out-neighbour is reported as an error: the caller (the
// recovery protocol) treats it as a concurrent failure and retries the
// recovery round.
func Build(ep transport.Endpoint, rank int, table []transport.Addr, base int) (*Ring, error) {
	if base < 2 {
		base = 2
	}
	n := len(table)
	r := &Ring{
		rank:     rank,
		n:        n,
		base:     base,
		notifyCh: make(chan Notification, 1),
		stopCh:   make(chan struct{}),
	}
	for _, nb := range OutNeighbors(rank, n, base) {
		conn, err := ep.Connect(table[nb])
		if err != nil {
			r.Shutdown()
			return nil, fmt.Errorf("overlay: connect to rank %d: %w", nb, err)
		}
		r.watch(conn)
	}
	// Watch incoming connections for the lifetime of the ring.
	go func() {
		for {
			select {
			case conn, ok := <-ep.Accept():
				if !ok {
					return
				}
				r.watch(conn)
			case <-r.stopCh:
				return
			}
		}
	}()
	return r, nil
}

// ConnCount returns the number of connections currently watched.
func (r *Ring) ConnCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.conns)
}

// Notify returns the channel on which at most one failure notification
// is delivered.
func (r *Ring) Notify() <-chan Notification { return r.notifyCh }

func (r *Ring) watch(conn transport.Conn) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		conn.Close()
		return
	}
	r.conns = append(r.conns, conn)
	r.mu.Unlock()

	go func() {
		select {
		case <-conn.Closed():
			r.onDisconnect()
		case <-r.stopCh:
		}
	}()
}

// onDisconnect handles a disconnect event: the first one marks the
// ring notified, emits the notification, and closes every remaining
// connection to propagate the event along the ring.
func (r *Ring) onDisconnect() {
	r.mu.Lock()
	if r.quiet || r.notified {
		r.mu.Unlock()
		return
	}
	r.notified = true
	conns := append([]transport.Conn{}, r.conns...)
	r.mu.Unlock()

	select {
	case r.notifyCh <- Notification{}:
	default:
	}
	for _, c := range conns {
		c.Close()
	}
}

// Notified reports whether the ring has observed a failure.
func (r *Ring) Notified() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notified
}

// Shutdown tears the ring down. Peers observe the closes; if they are
// not themselves shutting down they will interpret them as failure
// propagation, which is harmless during recovery (everyone is heading
// to the same place) and prevented during finalize by quiescing the
// ring before a final barrier. A quiesced ring still owns its
// connections and watchers until Shutdown.
func (r *Ring) Shutdown() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.quiet, r.stopped = true, true
	conns := r.conns
	r.conns = nil
	close(r.stopCh)
	r.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Abandon releases the ring's watchers without closing its
// connections: the process that owns it died, and its peers learn that
// from the endpoint's death (after DetectDelay), not from closes.
func (r *Ring) Abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.stopped {
		r.quiet, r.stopped = true, true
		close(r.stopCh)
	}
}

// Quiesce stops reacting to disconnect events without closing the
// connections; used right before the finalize barrier so that peers'
// endpoint teardown is not mistaken for a failure. Shutdown still
// has to follow to release them.
func (r *Ring) Quiesce() {
	r.mu.Lock()
	r.quiet = true
	r.mu.Unlock()
}
