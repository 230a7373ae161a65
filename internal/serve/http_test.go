package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fmi/internal/trace"
)

// startHTTP boots a server on a free port and returns its base URL.
func startHTTP(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := newServer(t, cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s, "http://" + addr.String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: bad json %q: %v", url, data, err)
		}
	}
	return resp
}

// TestHTTPEndToEnd drives the whole API over a real socket: submit,
// poll status, stream the trace, read stats, inject a kill.
func TestHTTPEndToEnd(t *testing.T) {
	s, base := startHTTP(t, testConfig())
	_ = s

	// Health first.
	var health struct {
		OK bool `json:"ok"`
	}
	if resp := getJSON(t, base+"/healthz", &health); resp.StatusCode != 200 || !health.OK {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	// Submit a job that will be killed mid-run.
	resp, body := postJSON(t, base+"/jobs", JobSpec{
		Tenant: "web", App: "allreduce", Ranks: 4, Iters: 8, Interval: 2, StepMs: 10,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil || submitted.ID == "" {
		t.Fatalf("submit response %q: %v", body, err)
	}
	id := submitted.ID

	// Wait for it to start, then kill rank 1's node over HTTP.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, base+"/jobs/"+id, &st)
		if st.State == "running" {
			break
		}
		if st.State == "done" || time.Now().After(deadline) {
			t.Fatalf("job never observed running: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	kresp, kbody := postJSON(t, base+"/jobs/"+id+"/kill", map[string]int{"rank": 1})
	if kresp.StatusCode != 200 {
		t.Fatalf("kill: %d %s", kresp.StatusCode, kbody)
	}

	// Poll to completion.
	var final JobStatus
	for {
		getJSON(t, base+"/jobs/"+id, &final)
		if final.State == "done" || final.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != "done" || final.Epochs == 0 || final.SparesUsed == 0 {
		t.Fatalf("final status %+v: want done with recovery evidence", final)
	}

	// Stream the trace; it must parse as JSONL and contain the
	// recovery choreography.
	tresp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	tbody, err := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err != nil {
		t.Fatalf("trace read: %v", err)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content-type %q", ct)
	}
	events, err := trace.ParseJSONL(bytes.NewReader(tbody))
	if err != nil {
		t.Fatalf("trace parse: %v\n%s", err, tbody)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, want := range []trace.Kind{trace.KindNodeFailed, trace.KindEpoch, trace.KindSpareAlloc, trace.KindRespawn} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %s events (have %v)", want, kinds)
		}
	}

	// Stats must be well-formed and reflect the completed job.
	var stats ServerStats
	if resp := getJSON(t, base+"/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if stats.Jobs["done"] == 0 {
		t.Errorf("stats jobs = %v, want a done job", stats.Jobs)
	}
	if ts := stats.Tenants["web"]; ts.Submitted != 1 || ts.Completed != 1 {
		t.Errorf("tenant stats = %+v", ts)
	}
	if stats.Spares.Granted == 0 || stats.Spares.Leased != 0 {
		t.Errorf("spare stats = %+v: want granted>0, leased back to 0", stats.Spares)
	}
}

// TestHTTPErrors pins the error-path status codes.
func TestHTTPErrors(t *testing.T) {
	cfg := testConfig()
	cfg.AllowKill = false
	cfg.QueueDepth = 1
	cfg.MaxRunningPerTenant = 1
	_, base := startHTTP(t, cfg)

	// Unknown job: 404.
	resp := getJSON(t, base+"/jobs/j-999", nil)
	if resp.StatusCode != 404 {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	// Unknown route: 404.
	if resp := getJSON(t, base+"/nope", nil); resp.StatusCode != 404 {
		t.Errorf("unknown route: %d, want 404", resp.StatusCode)
	}
	// Bad spec: 400.
	if resp, _ := postJSON(t, base+"/jobs", JobSpec{Tenant: "t", App: "nope", Ranks: 2}); resp.StatusCode != 400 {
		t.Errorf("bad app: %d, want 400", resp.StatusCode)
	}
	// Malformed JSON: 400.
	mresp, err := http.Post(base+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != 400 {
		t.Errorf("malformed json: %d, want 400", mresp.StatusCode)
	}
	// Kill disabled: 403.
	spec := JobSpec{Tenant: "t", App: "allreduce", Ranks: 4, Iters: 20, StepMs: 25}
	_, body := postJSON(t, base+"/jobs", spec)
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp, _ := postJSON(t, base+"/jobs/"+submitted.ID+"/kill", map[string]int{"rank": 0}); resp.StatusCode != 403 {
		t.Errorf("kill disabled: %d, want 403", resp.StatusCode)
	}
	// Queue overflow: fill the single queue slot behind the running
	// job, then expect 429.
	saw429 := false
	for i := 0; i < 6 && !saw429; i++ {
		resp, _ := postJSON(t, base+"/jobs", spec)
		if resp.StatusCode == 429 {
			saw429 = true
		} else if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}
	if !saw429 {
		t.Error("queue overflow never returned 429")
	}
}

// TestHTTPResize drives an online grow over the wire: submit an
// elastic job, resize it mid-run, and watch the status and stats
// documents track the new membership view.
func TestHTTPResize(t *testing.T) {
	s, base := startHTTP(t, testConfig())
	_ = s
	resp, body := postJSON(t, base+"/jobs", JobSpec{
		Tenant: "web", App: "noop", Ranks: 2, Iters: 60, StepMs: 10, Elastic: true,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &submitted); err != nil || submitted.ID == "" {
		t.Fatalf("submit response %q: %v", body, err)
	}
	id := submitted.ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, base+"/jobs/"+id, &st)
		if st.State == "running" {
			break
		}
		if st.State == "done" || time.Now().After(deadline) {
			t.Fatalf("job never observed running: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	rresp, rbody := postJSON(t, base+"/jobs/"+id+"/resize", map[string]int{"ranks": 4})
	if rresp.StatusCode != 200 {
		t.Fatalf("resize: %d %s", rresp.StatusCode, rbody)
	}
	var res ResizeResult
	if err := json.Unmarshal(rbody, &res); err != nil {
		t.Fatalf("resize response %q: %v", rbody, err)
	}
	if res.Ranks != 4 || res.ViewVersion != 2 {
		t.Fatalf("resize result = %+v, want ranks 4 view 2", res)
	}
	var st JobStatus
	getJSON(t, base+"/jobs/"+id, &st)
	if st.Ranks != 4 || st.ViewVersion != 2 {
		t.Fatalf("status after resize = %+v, want ranks 4 view 2", st)
	}

	// Resizing a non-elastic job over HTTP is a 409.
	_, b2 := postJSON(t, base+"/jobs", JobSpec{Tenant: "web", App: "noop", Ranks: 2, Iters: 40, StepMs: 10})
	var j2 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b2, &j2); err != nil {
		t.Fatal(err)
	}
	for {
		var st2 JobStatus
		getJSON(t, base+"/jobs/"+j2.ID, &st2)
		if st2.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second job never running: %+v", st2)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp, _ := postJSON(t, base+"/jobs/"+j2.ID+"/resize", map[string]int{"ranks": 4}); resp.StatusCode != 409 {
		t.Errorf("non-elastic resize: %d, want 409", resp.StatusCode)
	}

	for _, jid := range []string{id, j2.ID} {
		for {
			var fs JobStatus
			getJSON(t, base+"/jobs/"+jid, &fs)
			if fs.State == "done" {
				break
			}
			if fs.State == "failed" || time.Now().After(deadline) {
				t.Fatalf("job %s: %+v", jid, fs)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var stats ServerStats
	getJSON(t, base+"/stats", &stats)
	if stats.ResizesTotal != 1 {
		t.Errorf("stats resizes_total = %d, want 1", stats.ResizesTotal)
	}
}

// TestHTTPKeepAlive pins that one connection serves many requests:
// the worker-pool path reuses the goroutine and the pooled reader.
func TestHTTPKeepAlive(t *testing.T) {
	s, base := startHTTP(t, testConfig())
	id := submitOK(t, s, JobSpec{Tenant: "ka", App: "noop", Ranks: 2, Iters: 3})
	awaitDone(t, s, id)

	// A single client connection, many sequential polls.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for i := 0; i < 50; i++ {
		resp, err := client.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		var st JobStatus
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll %d: bad json %q", i, data)
		}
		if st.ID != id || st.State != "done" {
			t.Fatalf("poll %d: %+v", i, st)
		}
	}
	// All 50 requests should have flowed through at most a few workers.
	s.wp.mu.Lock()
	workers := s.wp.count
	s.wp.mu.Unlock()
	if workers > 4 {
		t.Errorf("worker count = %d after sequential polling, want <= 4", workers)
	}
}

// TestTraceOfQueuedJob pins the 409 for jobs that have not started.
func TestTraceOfQueuedJob(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRunningPerTenant = 1
	_, base := startHTTP(t, cfg)
	// First job occupies the only slot; second stays queued.
	_, b1 := postJSON(t, base+"/jobs", JobSpec{Tenant: "q", App: "allreduce", Ranks: 4, Iters: 50, StepMs: 25})
	_, b2 := postJSON(t, base+"/jobs", JobSpec{Tenant: "q", App: "noop", Ranks: 2, Iters: 3})
	var j1, j2 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b1, &j1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &j2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/trace", base, j2.ID))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("trace of queued job: %d, want 409", resp.StatusCode)
	}
}
