package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// spinKasm loops for tens of millions of iterations — long enough that a
// cancellation must interrupt it mid-simulation.
const spinKasm = `
.kernel spin
.regs 2
.pregs 1
.threads 32
.grid 2

    mov r0, 0
    mov r1, 50000000
top:
    iadd r0, r0, 1
    setp.lt p0, r0, r1
    @p0 bra top
    exit
`

// wastefulKasm allocates registers it never touches, which core.Lint
// flags (wasted occupancy) — the lint_rejected fixture.
const wastefulKasm = `
.kernel wasteful
.regs 6
.pregs 1
.threads 32
.grid 1

    mov r0, 0
    exit
`

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJob(t *testing.T, ts *httptest.Server, body string, query string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &view)
	return resp, view
}

func waitDone(t *testing.T, s *Service, id string, timeout time.Duration) JobView {
	t.Helper()
	j := s.Job(id)
	if j == nil {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s still %s after %s", id, j.State(), timeout)
	}
	return j.View()
}

func TestSubmitRunsJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if view.State != StateQueued && view.State != StateRunning {
		t.Fatalf("initial state = %q", view.State)
	}
	final := waitDone(t, s, view.ID, time.Minute)
	if final.State != StateDone {
		t.Fatalf("state = %q (error %+v)", final.State, final.Error)
	}
	if final.Result == nil || !strings.Contains(final.Result.Report, "static") {
		t.Fatalf("result missing or report lacks the policy row: %+v", final.Result)
	}
	if final.Result.FailedRows != 0 {
		t.Fatalf("failed rows: %d\n%s", final.Result.FailedRows, final.Result.Report)
	}
	if len(final.Result.Rows) != 1 || final.Result.Rows[0].Cycles <= 0 {
		t.Fatalf("rows = %+v", final.Result.Rows)
	}
}

func TestSubmitWaitReturnsResult(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, view := postJob(t, ts, `{"workload":"bfs","policy":"regmutex","scale":8,"sms":2}`, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("wait=1 returned %q with result %v", view.State, view.Result)
	}
}

func TestRejectsMalformedRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"bad json", `{not json`, 400, CodeBadRequest},
		{"no input", `{}`, 400, CodeBadRequest},
		{"both inputs", `{"workload":"bfs","kasm":".kernel x"}`, 400, CodeBadRequest},
		{"unknown workload", `{"workload":"nope"}`, 400, CodeUnknownWorkload},
		{"unknown policy", `{"workload":"bfs","policy":"nope"}`, 400, CodeUnknownPolicy},
		{"unknown experiment", `{"experiment":"fig99"}`, 400, CodeUnknownExperiment},
		{"unknown kind", `{"kind":"dance"}`, 400, CodeBadRequest},
		{"kasm parse error", `{"kasm":"not assembly at all"}`, 400, CodeParseError},
		{"kasm lint", fmt.Sprintf(`{"kasm":%q}`, wastefulKasm), 422, CodeLintRejected},
		{"oversized body", fmt.Sprintf(`{"workload":"bfs","client":%q}`, strings.Repeat("a", MaxSubmitBytes)), 413, CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var body struct {
				Error *ErrorBody `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == nil {
				t.Fatalf("no error body (%v)", err)
			}
			if body.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q (%s)", body.Error.Code, tc.code, body.Error.Message)
			}
		})
	}
}

func TestLintRejectionOverridable(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 2})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := fmt.Sprintf(`{"kasm":%q,"allow_lint":true,"policy":"static"}`, wastefulKasm)
	resp, view := postJob(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	final := waitDone(t, s, view.ID, time.Minute)
	if final.State != StateDone {
		t.Fatalf("state = %q (%+v)", final.State, final.Error)
	}
}

func TestQueueFull(t *testing.T) {
	// No Start(): nothing drains the queue, so depth 2 fills at once.
	s := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := `{"workload":"bfs","policy":"static","scale":8}`
	for i := 0; i < 2; i++ {
		resp, _ := postJob(t, ts, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestRateLimit(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 100, RatePerSec: 1, Burst: 3})
	now := time.Unix(1000, 0)
	s.limiter.now = func() time.Time { return now }
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := `{"workload":"bfs","client":"alice"}`
	for i := 0; i < 3; i++ {
		resp, _ := postJob(t, ts, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status = %d (Retry-After %q), want 429 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// A different client is not throttled.
	resp2, _ := postJob(t, ts, `{"workload":"bfs","client":"bob"}`, "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("other client: status %d", resp2.StatusCode)
	}
	// Tokens refill with time.
	now = now.Add(2 * time.Second)
	resp3, _ := postJob(t, ts, body, "")
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("after refill: status %d", resp3.StatusCode)
	}
}

func TestNotFound(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/jobs/j999999"},
		{"DELETE", "/v1/jobs/j999999"},
		{"GET", "/v1/jobs/j999999/events"},
	} {
		r, _ := http.NewRequest(req.method, ts.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 10})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	_, view := postJob(t, ts, `{"workload":"bfs"}`, "")
	r, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobView
	json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if canceled.State != StateCanceled {
		t.Fatalf("state = %q, want canceled", canceled.State)
	}
	// The executor must skip it once started.
	s.Start()
	time.Sleep(50 * time.Millisecond)
	if got := s.Job(view.ID).State(); got != StateCanceled {
		t.Fatalf("state after start = %q", got)
	}
}

// A running simulation is released promptly after its job is canceled:
// the device polls the context every 4096 scheduler iterations, far
// inside one watchdog epoch of simulated work.
func TestCancelRunningJobReleasesPromptly(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, PoolWorkers: 1})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := fmt.Sprintf(`{"kasm":%q,"policy":"static"}`, spinKasm)
	_, view := postJob(t, ts, body, "")
	j := s.Job(view.ID)

	// Wait for evidence the simulation is actually running (a progress
	// sample), not just queued.
	deadline := time.After(30 * time.Second)
	seen := 0
	for {
		events, changed := j.EventsSince(seen)
		sampled := false
		for _, ev := range events {
			seen = ev.Seq + 1
			if ev.Type == "sample" {
				sampled = true
			}
		}
		if sampled {
			break
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("no progress sample; job state %s", j.State())
		}
	}

	start := time.Now()
	r, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-j.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("canceled job did not reach a terminal state")
	}
	if got := j.State(); got != StateCanceled {
		t.Fatalf("state = %q, want canceled", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("release took %s", elapsed)
	}
	// The worker is free again: a small follow-up job completes.
	_, next := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "")
	final := waitDone(t, s, next.ID, time.Minute)
	if final.State != StateDone {
		t.Fatalf("follow-up job state = %q (%+v)", final.State, final.Error)
	}
}

func TestEventStreamSSE(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, PoolWorkers: 2})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	_, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body) // server closes at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	want := []string{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("state sequence = %v, want %v", states, want)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("status = %q", health.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(csv, []byte("name")) {
		t.Fatalf("csv metrics missing header:\n%s", csv)
	}
}

func TestDrainRefusesNewAndFinishesAccepted(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4, QueueDepth: 32})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"workload":"bfs","policy":"static","scale":8,"sms":2,"seed":%d}`, i)
		resp, view := postJob(t, ts, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, view.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	// While draining, new submissions bounce with 503.
	time.Sleep(10 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"bfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", resp.StatusCode)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every accepted job finished; none were dropped.
	for _, id := range ids {
		v := s.Job(id).View()
		if v.State != StateDone {
			t.Fatalf("job %s state = %q after drain (%+v)", id, v.State, v.Error)
		}
	}
}

func TestJournalReplay(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): these jobs are accepted but never run — the shape a
	// crash or hard kill leaves behind.
	var ids []string
	for i := 0; i < 2; i++ {
		j, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2})
		if body != nil {
			t.Fatalf("submit: %v", body)
		}
		ids = append(ids, j.ID)
	}
	// A canceled job gets a finish record and must NOT be replayed.
	jc, body := s1.Submit(SubmitRequest{Workload: "bfs", Policy: "static"})
	if body != nil {
		t.Fatalf("submit: %v", body)
	}
	s1.Cancel(jc.ID)
	s1.Close()

	s2 := newTestService(t, Config{Workers: 2, PoolWorkers: 4, JournalPath: path})
	if got := s2.QueueLen(); got != 2 {
		t.Fatalf("replayed queue length = %d, want 2", got)
	}
	if s2.Job(jc.ID) != nil {
		t.Fatalf("canceled job %s was replayed", jc.ID)
	}
	s2.Start()
	for _, id := range ids {
		v := waitDone(t, s2, id, 2*time.Minute)
		if v.State != StateDone {
			t.Fatalf("replayed job %s state = %q (%+v)", id, v.State, v.Error)
		}
	}
}

func TestExperimentJob(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, view := postJob(t, ts, `{"experiment":"storage"}`, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if view.State != StateDone || view.Result == nil ||
		!strings.Contains(view.Result.Report, "RegMutex structures") {
		t.Fatalf("experiment result: state %q, %+v", view.State, view.Result)
	}
}
