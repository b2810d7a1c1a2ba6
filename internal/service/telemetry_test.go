package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regmutex/internal/obs"
)

// syncBuffer is a goroutine-safe log sink: the HTTP server writes access
// logs from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRequestIDAssignedAndLogged(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, obs.LogJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s, WithAccessLog(logger)))
	defer ts.Close()

	// Inbound X-Request-Id is honored and echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-7" {
		t.Fatalf("X-Request-Id = %q, want the inbound value", got)
	}

	// Without an inbound ID the middleware mints one, and distinct
	// requests get distinct IDs.
	var minted []string
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("response without X-Request-Id")
		}
		minted = append(minted, id)
	}
	if minted[0] == minted[1] {
		t.Fatalf("two requests share request ID %q", minted[0])
	}

	// Every ID appears in exactly the access-log line for its request.
	out := logs.String()
	for _, id := range append(minted, "caller-supplied-7") {
		if !strings.Contains(out, `"request_id":"`+id+`"`) {
			t.Errorf("access log missing request_id %q:\n%s", id, out)
		}
	}
	var line struct {
		Msg    string `json:"msg"`
		Route  string `json:"route"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(out, "\n", 2)[0]), &line); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, out)
	}
	if line.Msg != "request" || line.Route != "healthz" || line.Status != 200 {
		t.Fatalf("unexpected access log line: %+v", line)
	}
}

func TestMetricsPrometheusEndpoint(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	_, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "")
	if final := waitDone(t, s, view.ID, time.Minute); final.State != StateDone {
		t.Fatalf("job state %q (%+v)", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		// Per-route latency histograms (submit route took real traffic).
		"# TYPE http_latency_v1_jobs_submit histogram",
		`http_latency_v1_jobs_submit_count{name="http.latency.v1_jobs_submit"} 1`,
		`le="+Inf"`,
		// Admission counters, the exercised and the still-zero alike.
		`service_jobs_accepted{name="service.jobs_accepted"} 1`,
		`service_rejected_queue_full{name="service.rejected_queue_full"} 0`,
		`service_rejected_rate_limited{name="service.rejected_rate_limited"} 0`,
		`service_rejected_draining{name="service.rejected_draining"} 0`,
		// Job lifecycle spans.
		`job_queue_wait_seconds_count{name="job.queue_wait_seconds"} 1`,
		`job_run_seconds_count{name="job.run_seconds"} 1`,
		`job_e2e_seconds_count{name="job.e2e_seconds"} 1`,
		// Scrape-time gauges.
		"service_queue_depth",
		"service_memo_hit_rate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
	// Minimal format validity: every non-comment line is `name{...} value`
	// with a parseable float value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		val := line[sp+1:]
		if val != "+Inf" {
			var f float64
			if _, err := json.Number(val).Float64(); err != nil {
				_ = f
				t.Fatalf("non-numeric sample %q in line %q", val, line)
			}
		}
	}

	// JSON view exposes the derived histogram quantiles too.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(jsonBody, []byte(`"job.e2e_seconds.p99"`)) {
		t.Fatalf("JSON metrics missing histogram quantiles:\n%s", jsonBody)
	}
}

func TestHealthzAndReadyzDuringDrain(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	// Steady state: both healthy.
	if code, body := get("/healthz"); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz steady = %d %v", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body["status"] != "ok" {
		t.Fatalf("readyz steady = %d %v", code, body)
	}

	// Draining: still live (200 + draining body), but not ready (503).
	s.draining.Store(true)
	if code, body := get("/healthz"); code != 200 || body["status"] != "draining" {
		t.Fatalf("healthz draining = %d %v, want 200 with draining body", code, body)
	}
	if code, body := get("/readyz"); code != 503 || body["status"] != "draining" {
		t.Fatalf("readyz draining = %d %v, want 503 with draining body", code, body)
	}
}

// TestSSEKeepalive: a stream over a job that produces no events still
// receives ": ping" comment frames on the keepalive interval.
func TestSSEKeepalive(t *testing.T) {
	// No Start(): the job stays queued and perfectly silent.
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(Handler(s, WithSSEKeepalive(20*time.Millisecond)))
	defer ts.Close()

	_, view := postJob(t, ts, `{"workload":"bfs"}`, "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type lineOrErr struct {
		line string
		err  error
	}
	lines := make(chan lineOrErr)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- lineOrErr{line: sc.Text()}
		}
		lines <- lineOrErr{err: sc.Err()}
	}()
	pings := 0
	deadline := time.After(10 * time.Second)
	for pings < 3 {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream ended early: %v", l.err)
			}
			if strings.HasPrefix(l.line, ":") {
				pings++
			}
		case <-deadline:
			t.Fatalf("saw only %d keepalive frames on a silent stream", pings)
		}
	}
}

// TestJobSpanHistograms drives several jobs and checks the lifecycle
// histograms carry coherent spans (queue_wait + run ≈ e2e, counts match).
func TestJobSpanHistograms(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	const jobs = 3
	for i := 0; i < jobs; i++ {
		_, view := postJob(t, ts, `{"workload":"bfs","policy":"static","scale":8,"sms":2}`, "?wait=1")
		if view.State != StateDone {
			t.Fatalf("job %d state %q", i, view.State)
		}
	}
	hists := s.Metrics().Histograms()
	for _, name := range []string{"job.queue_wait_seconds", "job.run_seconds", "job.e2e_seconds"} {
		h, ok := hists[name]
		if !ok || h.Count != jobs {
			t.Fatalf("%s count = %d (present %v), want %d", name, h.Count, ok, jobs)
		}
	}
	wait, run, e2e := hists["job.queue_wait_seconds"], hists["job.run_seconds"], hists["job.e2e_seconds"]
	if sum := wait.Sum + run.Sum; sum > e2e.Sum*1.01+0.001 {
		t.Fatalf("queue_wait (%v) + run (%v) exceeds e2e (%v)", wait.Sum, run.Sum, e2e.Sum)
	}
	if run.Sum <= 0 || e2e.Sum <= 0 {
		t.Fatalf("zero-length spans: run %v, e2e %v", run.Sum, e2e.Sum)
	}
}

// BenchmarkMiddlewareOff / BenchmarkMiddlewareOn price the telemetry
// middleware (request IDs, histograms, status counters, access log at
// error level — i.e. discarded) against a bare handler. The obs-bench
// make target tracks the pair; the delta is the advertised ≤2% budget
// for the disabled-logging path.
func BenchmarkMiddlewareOff(b *testing.B) { benchMiddleware(b, false) }
func BenchmarkMiddlewareOn(b *testing.B)  { benchMiddleware(b, true) }

func benchMiddleware(b *testing.B, instrumented bool) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var h http.Handler
	if instrumented {
		logger, _ := obs.NewLogger(io.Discard, obs.LogText, 127) // error-and-above: everything filtered
		h = Handler(s, WithAccessLog(logger))
	} else {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
		})
		h = mux
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
