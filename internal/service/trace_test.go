package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regmutex/internal/obs"
)

func getSpans(t *testing.T, ts *httptest.Server, trace string) []obs.Span {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/spans?trace=" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/spans status %d", resp.StatusCode)
	}
	var spans []obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestLifecycleSpans drives one synchronous job with an explicit
// X-Trace-Context and checks the accept -> queue -> run -> stream spans
// land in the recorder under the caller's trace, parented on the
// caller's span, with the SLO class attributed.
func TestLifecycleSpans(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := `{"workload":"bfs","policy":"static","scale":8,"sms":2,"slo_class":"interactive"}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs?wait=1", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceContextHeader, "trace-77/r-12")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if view.State != StateDone {
		t.Fatalf("job state %q", view.State)
	}

	spans := getSpans(t, ts, "trace-77")
	stages := map[string]obs.Span{}
	for _, sp := range spans {
		if sp.Trace != "trace-77" {
			t.Fatalf("span trace %q, want trace-77", sp.Trace)
		}
		if sp.Parent != "r-12" {
			t.Fatalf("span %s parent %q, want r-12", sp.Stage, sp.Parent)
		}
		if sp.Proc != "gpusimd" {
			t.Fatalf("span %s proc %q, want gpusimd", sp.Stage, sp.Proc)
		}
		if sp.Class != "interactive" {
			t.Fatalf("span %s class %q, want interactive", sp.Stage, sp.Class)
		}
		stages[sp.Stage] = sp
	}
	for _, want := range []string{obs.StageAccept, obs.StageQueue, obs.StageRun, obs.StageStream} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("missing %s span; got %v", want, spans)
		}
	}
	if run := stages[obs.StageRun]; run.Dur() <= 0 {
		t.Fatalf("run span has no duration: %+v", run)
	}
	// Queue ends where run begins (shared anchor), so the stage
	// decomposition tiles the job's life with no gap.
	if q, r := stages[obs.StageQueue], stages[obs.StageRun]; !q.End.Equal(r.Start) {
		t.Fatalf("queue end %v != run start %v", q.End, r.Start)
	}

	// Without a trace filter the endpoint returns everything retained.
	if all := getSpans(t, ts, ""); len(all) < len(spans) {
		t.Fatalf("unfiltered spans %d < filtered %d", len(all), len(spans))
	}
}

// TestTraceFallsBackToRequestID: with no X-Trace-Context, the middleware
// request ID becomes the trace.
func TestTraceFallsBackToRequestID(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, PoolWorkers: 2})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"workload":"bfs","policy":"static","scale":8,"sms":2}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-abc-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spans := getSpans(t, ts, "req-abc-1")
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the request-ID trace")
	}
	for _, sp := range spans {
		if sp.Parent != "" {
			t.Fatalf("root trace should have unparented spans, got parent %q", sp.Parent)
		}
	}
}

// TestCoalescedFollowerQueueWaitOwnAcceptedAt is the memo-skew
// regression gate: a follower job coalesced onto a leader's memoized
// simulation must record job.queue_wait_seconds (and its queue span)
// from its OWN acceptedAt. If the leader's anchor leaked in, the
// follower's wait would include the gap between the two submissions.
func TestCoalescedFollowerQueueWaitOwnAcceptedAt(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, PoolWorkers: 4})
	s.Start()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	const body = `{"workload":"bfs","policy":"static","scale":8,"sms":2}`
	_, leader := postJob(t, ts, body, "?wait=1")
	if leader.State != StateDone {
		t.Fatalf("leader state %q", leader.State)
	}

	// The gap the follower must NOT inherit.
	const gap = 300 * time.Millisecond
	time.Sleep(gap)

	_, follower := postJob(t, ts, body, "?wait=1")
	if follower.State != StateDone {
		t.Fatalf("follower state %q", follower.State)
	}
	if !follower.Coalesced || follower.Result.MemoHits == 0 {
		t.Fatalf("follower did not coalesce: coalesced=%v memo_hits=%d",
			follower.Coalesced, follower.Result.MemoHits)
	}

	h, ok := s.Metrics().Histograms()["job.queue_wait_seconds"]
	if !ok || h.Count != 2 {
		t.Fatalf("queue_wait count = %d (present %v), want 2", h.Count, ok)
	}
	// Both waits were sub-gap: the sum (leader + follower) staying under
	// one gap proves neither observation spans the inter-submission gap.
	if h.Sum >= gap.Seconds() {
		t.Fatalf("queue_wait sum %.3fs >= gap %.3fs: follower inherited the leader's acceptedAt",
			h.Sum, gap.Seconds())
	}

	// Same check on the trace layer: every queue span is shorter than
	// the gap.
	for _, sp := range s.Spans().All() {
		if sp.Stage == obs.StageQueue && sp.Dur() >= gap {
			t.Fatalf("queue span %v spans the submission gap", sp.Dur())
		}
	}
}
