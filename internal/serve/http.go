// http.go is fmiserve's request path: a hand-rolled HTTP/1.1 server
// over net.Listener built on the package's worker pool. The status
// endpoint is the hot path — load balancers and clients poll it — so
// it is engineered to the bufpool discipline: one pooled buffer per
// request holds both headers and body, the job lookup indexes the map
// with string(b) (a no-copy conversion the compiler recognizes), and
// timestamps come from the coarse clock. Everything else (submit,
// stats, kill) is cold and uses encoding/json plainly.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"fmi/internal/trace"
)

// Start listens on addr and serves until Close. It returns the bound
// address (use ":0" to pick a free port).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// closeListener closes the listener and every connection being
// served; a connection handed to a worker after this is closed at once
// (trackConn).
func (s *Server) closeListener() {
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
}

// trackConn registers c as being served, or reports false once the
// server is closing.
func (s *Server) trackConn(c net.Conn) bool {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.closing.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.lnMu.Lock()
	delete(s.conns, c)
	s.lnMu.Unlock()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		if !s.wp.Serve(c) {
			c.Close() // pool saturated or stopped
		}
	}
}

// connState is the per-connection scratch kept across requests and
// pooled across connections: the buffered reader plus copies of the
// request-line tokens (ReadSlice views die on the next fill, so the
// path must be copied out before headers are read).
type connState struct {
	br      *bufio.Reader
	path    [256]byte
	pathLen int
	post    bool
}

var connStatePool = sync.Pool{New: func() any {
	return &connState{br: bufio.NewReaderSize(nil, 4096)}
}}

const maxBody = 64 << 10

// serveConn drives one connection's keep-alive loop; it is the worker
// pool's serve function.
func (s *Server) serveConn(c net.Conn) {
	if !s.trackConn(c) {
		c.Close()
		return
	}
	defer s.untrackConn(c)
	st := connStatePool.Get().(*connState)
	st.br.Reset(c)
	for {
		if !s.serveRequest(c, st) {
			break
		}
	}
	c.Close()
	st.br.Reset(nil)
	connStatePool.Put(st)
}

// serveRequest reads and answers one request; false closes the
// connection.
func (s *Server) serveRequest(c net.Conn, st *connState) bool {
	// Coarse deadline: idle keep-alive connections expire, at 5 ms
	// granularity, without a time.Now call per request.
	c.SetReadDeadline(time.Unix(0, s.clock.NowNanos()).Add(time.Minute))
	line, err := st.br.ReadSlice('\n')
	if err != nil {
		return false
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return false
	}
	method := line[:sp]
	rest := line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 || sp > len(st.path) {
		return false
	}
	st.pathLen = copy(st.path[:], rest[:sp])
	switch {
	case bytes.Equal(method, []byte("GET")):
		st.post = false
	case bytes.Equal(method, []byte("POST")):
		st.post = true
	default:
		s.writeError(c, 405, "method not allowed", true)
		return drainHeaders(st.br) == nil
	}

	contentLength, closing, err := readHeaders(st.br)
	if err != nil || contentLength > maxBody {
		return false
	}
	var body []byte
	if st.post && contentLength > 0 {
		body = s.pool.Get(contentLength)
		if _, err := io.ReadFull(st.br, body); err != nil {
			s.pool.Put(body)
			return false
		}
	}
	keep := s.route(c, st, body) && !closing
	if body != nil {
		s.pool.Put(body)
	}
	return keep
}

// readHeaders consumes header lines, extracting Content-Length and
// Connection: close.
func readHeaders(br *bufio.Reader) (contentLength int, closing bool, err error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = trimCRLF(line)
		if len(line) == 0 {
			return contentLength, closing, nil
		}
		col := bytes.IndexByte(line, ':')
		if col < 0 {
			continue
		}
		key, val := line[:col], bytes.TrimSpace(line[col+1:])
		switch {
		case equalFold(key, "content-length"):
			n, perr := strconv.Atoi(string(val))
			if perr != nil || n < 0 {
				return 0, false, fmt.Errorf("serve: bad content-length")
			}
			contentLength = n
		case equalFold(key, "connection"):
			closing = equalFold(val, "close")
		}
	}
}

func drainHeaders(br *bufio.Reader) error {
	_, _, err := readHeaders(br)
	return err
}

func trimCRLF(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// equalFold is an ASCII case-insensitive compare against a lowercase
// literal, with no allocation.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// route dispatches one parsed request; it reports whether the
// connection may be kept alive.
func (s *Server) route(c net.Conn, st *connState, body []byte) bool {
	path := st.path[:st.pathLen]
	if !st.post {
		switch {
		case bytes.Equal(path, []byte("/stats")):
			return s.handleStats(c)
		case bytes.Equal(path, []byte("/healthz")):
			return s.writeJSON(c, 200, []byte(`{"ok":true}`))
		case bytes.HasPrefix(path, []byte("/jobs/")):
			id := path[len("/jobs/"):]
			if bytes.HasSuffix(id, []byte("/trace")) {
				s.handleTrace(c, id[:len(id)-len("/trace")])
				return false // streaming responses close the connection
			}
			return s.handleStatus(c, id)
		}
		return s.writeError(c, 404, "not found", true)
	}
	switch {
	case bytes.Equal(path, []byte("/jobs")):
		return s.handleSubmit(c, body)
	case bytes.HasPrefix(path, []byte("/jobs/")) && bytes.HasSuffix(path, []byte("/kill")):
		id := path[len("/jobs/") : len(path)-len("/kill")]
		return s.handleKill(c, id, body)
	case bytes.HasPrefix(path, []byte("/jobs/")) && bytes.HasSuffix(path, []byte("/resize")):
		id := path[len("/jobs/") : len(path)-len("/resize")]
		return s.handleResize(c, id, body)
	}
	return s.writeError(c, 404, "not found", true)
}

// handleStatus is the hot path: GET /jobs/{id}. One pooled buffer
// carries headers and body; the body is rendered by hand at a fixed
// offset and memmoved flush against the headers for a single write.
func (s *Server) handleStatus(c net.Conn, id []byte) bool {
	jr := s.lookup(id)
	if jr == nil {
		return s.writeError(c, 404, "no such job", true)
	}
	const bodyOff = 512 // room for the header block before it
	buf := s.pool.Get(4096)
	body := jr.appendStatus(buf[bodyOff:bodyOff], s.clock.NowNanos())
	hdr := appendHeader(buf[:0], status200, ctJSON, len(body), true)
	var n int
	if len(hdr)+len(body) <= cap(buf) {
		// body may still sit inside buf; copy is memmove-safe for the
		// overlapping case.
		n = copy(buf[len(hdr):cap(buf)], body)
		n += len(hdr)
	} else {
		// Body outgrew the buffer (append reallocated): slow path.
		out := append(hdr, body...)
		_, err := c.Write(out)
		s.pool.Put(buf)
		return err == nil
	}
	_, err := c.Write(buf[:n])
	s.pool.Put(buf)
	return err == nil
}

// appendStatus renders the job's status JSON. All strings embedded
// raw are charset-restricted (id, tenant, app, state); only the error
// text needs escaping.
func (jr *jobRec) appendStatus(dst []byte, nowNs int64) []byte {
	jr.mu.Lock()
	dst = append(dst, `{"id":"`...)
	dst = append(dst, jr.id...)
	dst = append(dst, `","tenant":"`...)
	dst = append(dst, jr.tenant...)
	dst = append(dst, `","app":"`...)
	dst = append(dst, jr.spec.App...)
	dst = append(dst, `","state":"`...)
	dst = append(dst, stateNames[jr.state]...)
	dst = append(dst, `","ranks":`...)
	ranks := jr.spec.Ranks
	var viewVer uint64
	var epochs uint32
	if jr.job != nil {
		epochs = jr.job.Epoch()
		// Live world size comes from the membership view, not the
		// submitted spec: an elastic job may have resized since launch.
		if v := jr.job.CurrentView(); v != nil {
			ranks = v.Ranks
			viewVer = v.Version
		}
	}
	dst = strconv.AppendInt(dst, int64(ranks), 10)
	dst = append(dst, `,"view_version":`...)
	dst = strconv.AppendUint(dst, viewVer, 10)
	dst = append(dst, `,"epochs":`...)
	dst = strconv.AppendUint(dst, uint64(epochs), 10)
	dst = append(dst, `,"spares_used":`...)
	dst = strconv.AppendInt(dst, int64(jr.leases.Load()), 10)
	queued, running := jr.phaseMs(nowNs)
	dst = append(dst, `,"queued_ms":`...)
	dst = strconv.AppendInt(dst, queued, 10)
	dst = append(dst, `,"running_ms":`...)
	dst = strconv.AppendInt(dst, running, 10)
	if jr.errStr != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, jr.errStr)
	}
	dst = append(dst, '}')
	jr.mu.Unlock()
	return dst
}

// appendJSONString appends s as a JSON string literal with the
// mandatory escapes.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// Response header building blocks.
const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"

	status200 = "200 OK"
	status202 = "202 Accepted"
	status400 = "400 Bad Request"
	status403 = "403 Forbidden"
	status404 = "404 Not Found"
	status405 = "405 Method Not Allowed"
	status409 = "409 Conflict"
	status429 = "429 Too Many Requests"
	status500 = "500 Internal Server Error"
	status503 = "503 Service Unavailable"
)

func statusLine(code int) string {
	switch code {
	case 200:
		return status200
	case 202:
		return status202
	case 400:
		return status400
	case 403:
		return status403
	case 404:
		return status404
	case 405:
		return status405
	case 409:
		return status409
	case 429:
		return status429
	case 503:
		return status503
	default:
		return status500
	}
}

// appendHeader appends a full response header block.
func appendHeader(dst []byte, status, contentType string, contentLength int, keepAlive bool) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = append(dst, status...)
	dst = append(dst, "\r\nContent-Type: "...)
	dst = append(dst, contentType...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(contentLength), 10)
	if !keepAlive {
		dst = append(dst, "\r\nConnection: close"...)
	}
	return append(dst, "\r\n\r\n"...)
}

// writeJSON writes a small JSON response through a pooled buffer.
func (s *Server) writeJSON(c net.Conn, code int, body []byte) bool {
	buf := s.pool.Get(256 + len(body))
	out := appendHeader(buf[:0], statusLine(code), ctJSON, len(body), true)
	out = append(out, body...)
	_, err := c.Write(out)
	s.pool.Put(buf)
	return err == nil
}

// writeError writes {"error":...} with the given status.
func (s *Server) writeError(c net.Conn, code int, msg string, keepAlive bool) bool {
	buf := s.pool.Get(512)
	body := append(buf[256:256], `{"error":`...)
	body = appendJSONString(body, msg)
	body = append(body, '}')
	out := appendHeader(buf[:0], statusLine(code), ctJSON, len(body), keepAlive)
	out = append(out, body...)
	_, err := c.Write(out)
	s.pool.Put(buf)
	return err == nil && keepAlive
}

// handleSubmit is POST /jobs.
func (s *Server) handleSubmit(c net.Conn, body []byte) bool {
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return s.writeError(c, 400, "bad json: "+err.Error(), true)
	}
	id, err := s.Submit(spec)
	if err != nil {
		return s.writeError(c, errCode(err), err.Error(), true)
	}
	return s.writeJSON(c, 202, []byte(`{"id":"`+id+`"}`))
}

// errCode maps service errors to HTTP statuses.
func errCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return 429
	case errors.Is(err, ErrBadSpec):
		return 400
	case errors.Is(err, ErrNotFound):
		return 404
	case errors.Is(err, ErrKillDisabled):
		return 403
	case errors.Is(err, ErrClosed):
		return 503
	case errors.Is(err, ErrNotElastic), errors.Is(err, ErrResize):
		return 409
	case errors.Is(err, ErrNoCapacity):
		return 429
	default:
		return 500
	}
}

// handleResize is POST /jobs/{id}/resize with body {"ranks":N}: online
// grow/shrink of a running elastic job. The response is written after
// the new view commits, so a 200 means the job is already running at
// the new size.
func (s *Server) handleResize(c net.Conn, id []byte, body []byte) bool {
	var req struct {
		Ranks int `json:"ranks"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return s.writeError(c, 400, "bad json: "+err.Error(), true)
	}
	res, err := s.Resize(string(id), req.Ranks)
	if err != nil {
		return s.writeError(c, errCode(err), err.Error(), true)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return s.writeError(c, 500, err.Error(), true)
	}
	return s.writeJSON(c, 200, out)
}

// handleKill is POST /jobs/{id}/kill with body {"rank":N}.
func (s *Server) handleKill(c net.Conn, id []byte, body []byte) bool {
	if !s.cfg.AllowKill {
		return s.writeError(c, 403, ErrKillDisabled.Error(), true)
	}
	var req struct {
		Rank int `json:"rank"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return s.writeError(c, 400, "bad json: "+err.Error(), true)
	}
	node, err := s.KillRank(string(id), req.Rank)
	if err != nil {
		return s.writeError(c, errCode(err), err.Error(), true)
	}
	return s.writeJSON(c, 200, []byte(`{"killed_node":`+strconv.Itoa(node)+`}`))
}

// handleStats is GET /stats.
func (s *Server) handleStats(c net.Conn) bool {
	body, err := json.Marshal(s.Stats())
	if err != nil {
		return s.writeError(c, 500, err.Error(), true)
	}
	return s.writeJSON(c, 200, body)
}

// handleTrace streams the job's timeline as NDJSON: replay everything
// recorded so far, then follow live events until the job finishes.
// The connection closes when the stream ends.
func (s *Server) handleTrace(c net.Conn, id []byte) {
	jr := s.lookup(id)
	if jr == nil {
		s.writeError(c, 404, "no such job", false)
		return
	}
	jr.mu.Lock()
	rec := jr.rec
	jr.mu.Unlock()
	if rec == nil {
		s.writeError(c, 409, "job not started", false)
		return
	}
	hdr := "HTTP/1.1 200 OK\r\nContent-Type: " + ctNDJSON + "\r\nConnection: close\r\n\r\n"
	if _, err := c.Write([]byte(hdr)); err != nil {
		return
	}
	start := rec.StartTime()
	buf := s.pool.Get(8 << 10)
	defer s.pool.Put(buf)
	cursor := 0
	for {
		// Read finished before draining: events recorded before the
		// flag flipped are then guaranteed to be seen.
		done := jr.finished.Load()
		evs, next := rec.Since(cursor)
		cursor = next
		if len(evs) > 0 {
			out := buf[:0]
			for _, e := range evs {
				out = trace.AppendJSONL(out, start, e)
				if len(out) >= 4<<10 {
					if _, err := c.Write(out); err != nil {
						return
					}
					out = buf[:0]
				}
			}
			if len(out) > 0 {
				if _, err := c.Write(out); err != nil {
					return
				}
			}
			continue
		}
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
