package serve

import (
	"net"
	"sync"
)

// workerPool serves accepted connections on a bounded set of reused
// goroutines — the fasthttp workerpool.go idiom. Ready workers are
// kept in a LIFO stack so the most recently parked goroutine (hottest
// stack, warmest caches) is handed the next connection, and workers
// idle past maxIdleNanos are reaped by a periodic sweep instead of
// dying after every connection. Compared to a goroutine per
// connection this bounds concurrency and removes the spawn/teardown
// churn from the accept hot loop.
type workerPool struct {
	// serveConn handles one connection to completion.
	serveConn func(net.Conn)
	// maxWorkers bounds concurrent connections; beyond it Serve
	// reports failure and the caller closes the connection.
	maxWorkers int
	// maxIdleNanos is how long a parked worker survives between
	// connections before the sweep retires it.
	maxIdleNanos int64
	clock        *coarseClock

	mu      sync.Mutex
	ready   []*workerChan // LIFO stack of parked workers
	count   int           // live workers (parked + busy)
	stopped bool

	live sync.WaitGroup // one per worker goroutine (Wait)
}

// workerChan is one parked worker: a handoff channel and the coarse
// timestamp of when it parked.
type workerChan struct {
	lastUse int64
	ch      chan net.Conn
}

// Serve hands the connection to a worker, spawning one if the pool is
// below maxWorkers. It returns false when the pool is saturated or
// stopped; the caller owns the connection then.
func (wp *workerPool) Serve(c net.Conn) bool {
	ch := wp.getCh()
	if ch == nil {
		return false
	}
	ch.ch <- c
	return true
}

// getCh pops a parked worker or starts a new one.
func (wp *workerPool) getCh() *workerChan {
	wp.mu.Lock()
	if wp.stopped {
		wp.mu.Unlock()
		return nil
	}
	if n := len(wp.ready); n > 0 {
		ch := wp.ready[n-1]
		wp.ready[n-1] = nil
		wp.ready = wp.ready[:n-1]
		wp.mu.Unlock()
		return ch
	}
	if wp.count >= wp.maxWorkers {
		wp.mu.Unlock()
		return nil
	}
	wp.count++
	wp.live.Add(1)
	wp.mu.Unlock()
	ch := &workerChan{ch: make(chan net.Conn, 1)}
	go wp.workerLoop(ch)
	return ch
}

// workerLoop serves connections handed to ch until the channel is
// closed (by Stop or the idle sweep).
func (wp *workerPool) workerLoop(ch *workerChan) {
	for c := range ch.ch {
		wp.serveConn(c)
		if !wp.release(ch) {
			break
		}
	}
	wp.mu.Lock()
	wp.count--
	wp.mu.Unlock()
	wp.live.Done()
}

// release parks the worker back on the ready stack; false means the
// pool stopped and the worker must exit.
func (wp *workerPool) release(ch *workerChan) bool {
	ch.lastUse = wp.clock.NowNanos()
	wp.mu.Lock()
	if wp.stopped {
		wp.mu.Unlock()
		return false
	}
	wp.ready = append(wp.ready, ch)
	wp.mu.Unlock()
	return true
}

// SweepIdle retires workers parked longer than maxIdleNanos. The ready
// stack is LIFO, so idle workers accumulate at the bottom: everything
// below the first fresh entry is stale.
func (wp *workerPool) SweepIdle() {
	cutoff := wp.clock.NowNanos() - wp.maxIdleNanos
	var stale []*workerChan
	wp.mu.Lock()
	n := 0
	for n < len(wp.ready) && wp.ready[n].lastUse < cutoff {
		n++
	}
	if n > 0 {
		stale = append(stale, wp.ready[:n]...)
		wp.ready = append(wp.ready[:0], wp.ready[n:]...)
	}
	wp.mu.Unlock()
	for _, ch := range stale {
		close(ch.ch)
	}
}

// Stop retires every parked worker and marks the pool closed; busy
// workers exit after finishing their current connection.
func (wp *workerPool) Stop() {
	wp.mu.Lock()
	if wp.stopped {
		wp.mu.Unlock()
		return
	}
	wp.stopped = true
	ready := wp.ready
	wp.ready = nil
	wp.mu.Unlock()
	for _, ch := range ready {
		close(ch.ch)
	}
}

// Wait blocks until every worker has exited: after Stop, once the
// connections the busy ones serve are closed.
func (wp *workerPool) Wait() { wp.live.Wait() }
