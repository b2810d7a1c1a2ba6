package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regmutex/internal/cluster/chaos"
	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// TestReadyzNamesUnroutableInstances: the router's /readyz flips to 503
// with a JSON body naming the ejected instances once zero instances are
// routable, and recovers nothing silently.
func TestReadyzNamesUnroutableInstances(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean, chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	getReadyz := func() (int, Readiness) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body Readiness
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := getReadyz()
	if status != http.StatusOK || body.Status != "ok" || body.Routable != 2 {
		t.Fatalf("healthy readyz = %d %+v, want 200 ok with 2 routable", status, body)
	}

	// Kill both instances; after EjectAfter consecutive probe failures
	// the fleet has zero routable members.
	for _, b := range fleet {
		b.px.Kill()
	}
	for i := 0; i < 3; i++ {
		r.probeAll()
	}
	status, body = getReadyz()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead fleet = %d, want 503 (body %+v)", status, body)
	}
	if body.Status != "no_routable_instances" || body.Routable != 0 {
		t.Fatalf("readyz body = %+v, want no_routable_instances/0", body)
	}
	if len(body.Ejected) != 2 {
		t.Fatalf("ejected = %v, want both instances named", body.Ejected)
	}
	for _, in := range r.insts {
		found := false
		for _, name := range body.Ejected {
			if name == in.name {
				found = true
			}
		}
		if !found {
			t.Fatalf("instance %s missing from ejected list %v", in.name, body.Ejected)
		}
	}
}

// TestReadyzNamesOpenBreakers: an instance that answers probes but fails
// every job request opens its breaker; with no other instance the router
// reports 503 naming it under open_breakers.
func TestReadyzNamesOpenBreakers(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{
		chaos.FirstN(1000, chaos.FaultReset, "/v1/jobs"),
	}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	j, body := r.Submit(service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 4, SMs: 1})
	if body != nil {
		t.Fatalf("submit: %v", body)
	}
	// BreakerThreshold is 2: wait for two placement failures to open it.
	deadline := time.Now().Add(10 * time.Second)
	for r.insts[0].breaker.snapshot() != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; state %s", r.insts[0].breaker.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready Readiness
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d (%+v), want 503", resp.StatusCode, ready)
	}
	if len(ready.OpenBreakers) != 1 || ready.OpenBreakers[0] != r.insts[0].name {
		t.Fatalf("open_breakers = %v, want [%s]", ready.OpenBreakers, r.insts[0].name)
	}
	r.Cancel(j.ID) // stop the routing loop from burning its full JobTimeout
}

// lockedBuffer is a goroutine-safe access-log sink: the HTTP server
// writes from handler goroutines while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterRequestIDAndMetrics: the router serves its API through the
// instance's telemetry middleware, so it echoes an inbound X-Request-Id,
// mints one otherwise, logs each in its access-log line, and exposes the
// instance's http.* series. The middleware's request ID does not become
// the trace: a submit without headers is traced under the router job ID.
func TestRouterRequestIDAndMetrics(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	var logs lockedBuffer
	logger, err := obs.NewLogger(&logs, obs.LogJSON, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(r, service.WithAccessLog(logger)))
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-9" {
		t.Fatalf("X-Request-Id = %q, want the inbound value", got)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"workload":"bfs","policy":"static","scale":8,"sms":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" || minted == "caller-supplied-9" {
		t.Fatalf("submit X-Request-Id = %q, want a freshly minted ID", minted)
	}
	if view.State != service.StateDone {
		t.Fatalf("job state %q (error %+v)", view.State, view.Error)
	}
	if got := r.Job(view.ID).Trace(); got != view.ID {
		t.Fatalf("trace of a header-less submit = %q, want the router job ID %s", got, view.ID)
	}
	out := logs.String()
	for _, id := range []string{"caller-supplied-9", minted} {
		if !strings.Contains(out, `"request_id":"`+id+`"`) {
			t.Errorf("access log missing request_id %q:\n%s", id, out)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE http_latency_v1_jobs_submit histogram",
		`http_latency_v1_jobs_submit_count{name="http.latency.v1_jobs_submit"} 1`,
		"# TYPE http_in_flight gauge",
		`cluster_jobs_done{name="cluster.jobs_done"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("router prometheus exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestFleetTraceGolden is the span-layer end-to-end gate: a 2-instance
// fleet where every instance resets the first two /v1/jobs exchanges, so
// the one client job fails over (with retries and backoff) before it
// completes. The merged fleet trace must validate as Chrome JSON, carry
// the full retry tree (route / attempt / backoff / failover + the final
// instance's accept / queue / run / stream), and conserve time: the
// instance-stage spans nest inside the route span, which matches the
// client-observed end-to-end latency within tolerance.
func TestFleetTraceGolden(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{
		chaos.FirstN(2, chaos.FaultReset, "/v1/jobs"),
		chaos.FirstN(2, chaos.FaultReset, "/v1/jobs"),
	}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	const trace = "golden-trace-1"
	body := `{"workload":"bfs","policy":"static","scale":8,"sms":2,"slo_class":"interactive"}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs?wait=1", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceContextHeader, trace)
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	clientE2E := time.Since(t0)
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if view.State != service.StateDone {
		t.Fatalf("job state %q (error %+v)", view.State, view.Error)
	}
	// view.Attempts counts accepted placements only (1 here — the resets
	// happen before any instance accepts); the failed placements must
	// still show up below as attempt + failover spans.

	// The raw merged spans carry the whole retry tree. The instance
	// records its queue and run spans in finishRecord and its stream
	// span when its SSE handler returns; both can come after the
	// router's ?wait=1 reply, so poll (bounded) until all four instance
	// stages have landed.
	instanceStages := []string{obs.StageAccept, obs.StageQueue, obs.StageRun, obs.StageStream}
	var spans []obs.Span
	for deadline := time.Now().Add(10 * time.Second); ; {
		spans = nil
		resp, err = http.Get(ts.URL + "/v1/traces/" + trace + "?format=spans")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&spans)
		resp.Body.Close()
		seen := map[string]bool{}
		for _, sp := range spans {
			seen[sp.Stage] = true
		}
		missing := ""
		for _, stage := range instanceStages {
			if !seen[stage] {
				missing = stage
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("missing instance %s span after 10s: %+v", missing, spans)
		}
	}
	// The merged Chrome trace validates and names both process lanes.
	// It is fetched only after the poll has seen the run span.
	resp, err = http.Get(ts.URL + "/v1/traces/" + trace)
	if err != nil {
		t.Fatal(err)
	}
	chromeJSON, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidateChromeTrace(bytes.NewReader(chromeJSON)); err != nil {
		t.Fatalf("ValidateChromeTrace: %v\n%s", err, chromeJSON)
	}
	for _, want := range []string{`"router"`, "failover", "attempt", "run"} {
		if !strings.Contains(string(chromeJSON), want) {
			t.Fatalf("fleet trace missing %q:\n%s", want, chromeJSON)
		}
	}

	count := map[string]int{}
	var route obs.Span
	var stageSum time.Duration
	for _, sp := range spans {
		if sp.Trace != trace {
			t.Fatalf("span %s has trace %q", sp.ID, sp.Trace)
		}
		count[sp.Stage]++
		switch sp.Stage {
		case obs.StageRoute:
			route = sp
		case obs.StageQueue, obs.StageRun, obs.StageStream:
			stageSum += sp.Dur()
		}
	}
	if count[obs.StageRoute] != 1 {
		t.Fatalf("route spans = %d, want 1 (spans: %+v)", count[obs.StageRoute], count)
	}
	if count[obs.StageAttempt] < 2 || count[obs.StageFailover] < 1 || count[obs.StageBackoff] < 1 {
		t.Fatalf("retry tree incomplete: %+v", count)
	}

	// Conservation: the instance stages fit inside the route span, and
	// the route span matches what the client measured. Tolerances absorb
	// scheduling delay between job finish and span recording (everything
	// runs on one clock here; in a real fleet this bound is the clock
	// skew allowance).
	const tol = time.Second
	if stageSum > route.Dur()+250*time.Millisecond {
		t.Fatalf("instance stages (%v) exceed route span (%v)", stageSum, route.Dur())
	}
	if diff := clientE2E - route.Dur(); diff < -tol || diff > tol {
		t.Fatalf("client e2e %v vs route span %v: drift %v exceeds %v",
			clientE2E, route.Dur(), diff, tol)
	}

	// The breakdown view decomposes the client latency per class.
	resp, err = http.Get(ts.URL + "/v1/traces/" + trace + "?format=breakdown")
	if err != nil {
		t.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"interactive", "e2e", "route", "queue", "run", "stream"} {
		if !strings.Contains(string(table), want) {
			t.Fatalf("breakdown missing %q:\n%s", want, table)
		}
	}

	// Unknown traces 404.
	resp, err = http.Get(ts.URL + "/v1/traces/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", resp.StatusCode)
	}
}

// TestFleetSpansOneLanePerInstance: one trace recorded on two instances
// merges into one process lane per instance, named after the instance,
// even though every instance records its own spans under the same lane.
func TestFleetSpansOneLanePerInstance(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean, chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))

	const trace = "two-lanes"
	for _, b := range fleet {
		req, _ := http.NewRequest("POST", b.ts.URL+"/v1/jobs?wait=1",
			strings.NewReader(`{"workload":"bfs","policy":"static","scale":8,"sms":2}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceContextHeader, trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("direct submit status %d", resp.StatusCode)
		}
	}

	procs := map[string]int{}
	for _, sp := range r.FleetSpans(context.Background(), trace) {
		procs[sp.Proc]++
	}
	if len(procs) != len(r.insts) {
		t.Fatalf("merged spans show lanes %v, want one per instance", procs)
	}
	for _, in := range r.insts {
		if procs[in.name] == 0 {
			t.Fatalf("no spans on lane %s; lanes %v", in.name, procs)
		}
	}
}

// TestFleetSpansUniqueIDs: two instances that each served one job of a
// trace mint the same instance-local span IDs; the merged fleet trace
// must still name every span once, and every instance span's parent must
// resolve inside the merged set.
func TestFleetSpansUniqueIDs(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean, chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))

	// Rendezvous placement on an idle fleet follows the fingerprint:
	// pick one request that lands on each instance.
	const trace = "unique-ids"
	served := map[string]bool{}
	for scale := 16; scale < 80 && len(served) < len(r.insts); scale++ {
		req := service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: scale, SMs: 1, TraceID: trace}
		if in := r.pickFor(req.Fingerprint(), nil); served[in.name] {
			continue
		}
		j, body := r.Submit(req)
		if body != nil {
			t.Fatal(body)
		}
		if v := waitRouterJob(t, j, 60*time.Second); v.State != service.StateDone {
			t.Fatalf("job %s state = %q", j.ID, v.State)
		}
		served[j.View().Instance] = true
	}
	if len(served) != len(r.insts) {
		t.Fatalf("jobs served by %v, want every instance", served)
	}

	spans := r.FleetSpans(context.Background(), trace)
	ids := map[string]bool{}
	instanceSpans := 0
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("span ID %q appears twice in the merged trace", sp.ID)
		}
		ids[sp.ID] = true
	}
	for _, sp := range spans {
		if sp.Proc == "router" {
			continue
		}
		instanceSpans++
		if sp.Parent != "" && !ids[sp.Parent] {
			t.Errorf("%s span %s: parent %q is not in the merged trace", sp.Proc, sp.ID, sp.Parent)
		}
	}
	if instanceSpans == 0 {
		t.Fatal("merged trace holds no instance spans")
	}
}
