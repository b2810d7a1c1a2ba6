package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regmutex/internal/cluster/chaos"
	"regmutex/internal/jsonl"
	"regmutex/internal/service"
)

// slowKasm is a spin kernel sized to run for roughly a second — long
// enough that a test can deterministically kill or drain the instance
// holding it mid-flight, short enough to re-run after a failover.
const slowKasm = `
.kernel spin
.regs 2
.pregs 1
.threads 32
.grid 2

    mov r0, 0
    mov r1, 400000
top:
    iadd r0, r0, 1
    setp.lt p0, r0, r1
    @p0 bra top
    exit
`

// backend is one gpusimd instance fronted by a chaos proxy. The router
// is pointed at the proxy, so every router<->instance exchange passes
// through the fault schedule.
type backend struct {
	svc *service.Service
	ts  *httptest.Server
	px  *chaos.Proxy
}

func startBackend(t *testing.T, schedule chaos.Schedule, latency time.Duration) *backend {
	t.Helper()
	s, err := service.New(service.Config{Workers: 2, PoolWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.Start()
	ts := httptest.NewServer(service.Handler(s))
	t.Cleanup(ts.Close)
	px, err := chaos.New(ts.URL, schedule, latency)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	return &backend{svc: s, ts: ts, px: px}
}

func startFleet(t *testing.T, schedules []chaos.Schedule, latency time.Duration) []*backend {
	t.Helper()
	fleet := make([]*backend, len(schedules))
	for i, sched := range schedules {
		fleet[i] = startBackend(t, sched, latency)
	}
	return fleet
}

func fleetURLs(fleet []*backend) []string {
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.px.URL()
	}
	return urls
}

// testRouterConfig shrinks every time constant so chaos runs converge in
// test time; Seed is fixed so retry jitter replays identically.
func testRouterConfig(urls []string) Config {
	return Config{
		Instances:          urls,
		ProbeInterval:      50 * time.Millisecond,
		ProbeTimeout:       time.Second,
		EjectAfter:         3,
		BreakerThreshold:   2,
		BreakerCooldown:    200 * time.Millisecond,
		Retry:              RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
		RequestTimeout:     3 * time.Second,
		StreamStallTimeout: 1500 * time.Millisecond,
		StreamReconnects:   2,
		JobTimeout:         90 * time.Second,
		Seed:               7,
	}
}

func startRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.Start()
	return r
}

func waitRouterJob(t *testing.T, j *Job, timeout time.Duration) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("router job %s still %s after %s", j.ID, j.State(), timeout)
	}
	return j.View()
}

// chaosBatch is the standard request mix: distinct fingerprints across
// scales and SM counts, all deterministic.
func chaosBatch() []service.SubmitRequest {
	var reqs []service.SubmitRequest
	for _, scale := range []int{4, 8} {
		for _, sms := range []int{1, 2} {
			reqs = append(reqs, service.SubmitRequest{
				Workload: "bfs", Policy: "static", Scale: scale, SMs: sms,
			})
		}
	}
	reqs = append(reqs, service.SubmitRequest{
		Workload: "bfs", Policies: []string{"static", "regmutex"}, Scale: 8, SMs: 2,
	})
	return reqs
}

// baselineReports runs the batch on one pristine instance and returns
// the canonical report per fingerprint — the byte-identity oracle every
// chaos case is held to.
func baselineReports(t *testing.T, reqs []service.SubmitRequest) map[uint64]string {
	t.Helper()
	s, err := service.New(service.Config{Workers: 2, PoolWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	out := make(map[uint64]string, len(reqs))
	for _, req := range reqs {
		j, body := s.Submit(req)
		if body != nil {
			t.Fatalf("baseline submit: %v", body)
		}
		select {
		case <-j.Done():
		case <-time.After(2 * time.Minute):
			t.Fatalf("baseline job %s stuck", j.ID)
		}
		v := j.View()
		if v.State != service.StateDone || v.Result == nil {
			t.Fatalf("baseline job failed: %+v", v.Error)
		}
		out[req.Fingerprint()] = v.Result.Report
	}
	return out
}

// runBatchAndVerify submits every request, waits for terminal states,
// and checks the core chaos invariants: every job done, every report
// byte-identical to the single-instance baseline, and the router's
// accounting exact (nothing lost, nothing double-counted).
func runBatchAndVerify(t *testing.T, r *Router, reqs []service.SubmitRequest, want map[uint64]string) {
	t.Helper()
	jobs := make([]*Job, len(reqs))
	for i, req := range reqs {
		j, body := r.Submit(req)
		if body != nil {
			t.Fatalf("submit %d: %v", i, body)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		v := waitRouterJob(t, j, 90*time.Second)
		if v.State != service.StateDone {
			t.Fatalf("job %d (%s) state = %q, error %+v", i, j.ID, v.State, v.Error)
		}
		if v.Result == nil || v.Result.Report != want[j.FP] {
			t.Fatalf("job %d (%s): report diverged from single-instance baseline\nwant:\n%s\ngot:\n%+v",
				i, j.ID, want[j.FP], v.Result)
		}
	}
	m := r.Metrics()
	if got := m.Counter("cluster.jobs_accepted").Value(); got != int64(len(reqs)) {
		t.Fatalf("jobs_accepted = %d, want %d", got, len(reqs))
	}
	if got := m.Counter("cluster.jobs_done").Value(); got != int64(len(reqs)) {
		t.Fatalf("jobs_done = %d, want %d (no job lost or double-counted)", got, len(reqs))
	}
	if failed, canceled := m.Counter("cluster.jobs_failed").Value(),
		m.Counter("cluster.jobs_canceled").Value(); failed != 0 || canceled != 0 {
		t.Fatalf("failed = %d canceled = %d, want 0/0", failed, canceled)
	}
	if got := len(r.Jobs()); got != len(reqs) {
		t.Fatalf("router tracks %d jobs, want %d", got, len(reqs))
	}
}

// assertMetricsExposed scrapes the router's own /metrics endpoint and
// checks the breaker/retry/failover series are visible — the operator-
// facing half of the chaos acceptance criteria.
func assertMetricsExposed(t *testing.T, r *Router) {
	t.Helper()
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text() + "\n")
	}
	for _, name := range []string{
		"cluster_retries", "cluster_failovers", "cluster_breaker_state",
		"cluster_jobs_done", "cluster_stream_resumes", "cluster_probe_failures",
	} {
		if !strings.Contains(body.String(), name) {
			t.Fatalf("router /metrics missing %s:\n%s", name, body.String())
		}
	}
}

// TestFleetCleanRouting: the no-chaos base case — the batch routes,
// results match the baseline, duplicate submissions coalesce fleet-wide,
// and a repeat of a finished job rides memo affinity back to the
// instance that already holds the answer.
func TestFleetCleanRouting(t *testing.T) {
	reqs := chaosBatch()
	want := baselineReports(t, reqs)
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean, chaos.Clean, chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	runBatchAndVerify(t, r, reqs, want)
	assertMetricsExposed(t, r)

	// Concurrent duplicate: the second identical submission must not buy
	// a second simulation — router-side single-flight coalesces it.
	dup := service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 16, SMs: 2}
	j1, body := r.Submit(dup)
	if body != nil {
		t.Fatal(body)
	}
	j2, body := r.Submit(dup)
	if body != nil {
		t.Fatal(body)
	}
	v1 := waitRouterJob(t, j1, time.Minute)
	v2 := waitRouterJob(t, j2, time.Minute)
	if v1.State != service.StateDone || v2.State != service.StateDone {
		t.Fatalf("dup states = %q/%q", v1.State, v2.State)
	}
	if !v2.Coalesced {
		t.Fatalf("second identical submission was not coalesced: %+v", v2)
	}
	if v1.Result.Report != v2.Result.Report {
		t.Fatal("coalesced job's report differs from the primary's")
	}
	if got := r.Metrics().Counter("cluster.jobs_coalesced").Value(); got < 1 {
		t.Fatalf("jobs_coalesced = %d, want >= 1", got)
	}

	// Sequential repeat: affinity should send it to the same instance,
	// where the memo answers from cache (remote view says coalesced).
	// Let a probe round refresh the queue hints to idle first, so the
	// affinity score is not tied by a stale queued-depth reading.
	time.Sleep(3 * testRouterConfig(nil).ProbeInterval)
	j3, body := r.Submit(dup)
	if body != nil {
		t.Fatal(body)
	}
	v3 := waitRouterJob(t, j3, time.Minute)
	if v3.State != service.StateDone || v3.Instance != v1.Instance {
		t.Fatalf("repeat landed on %s (state %s), want memo-affinity target %s",
			v3.Instance, v3.State, v1.Instance)
	}
	if !v3.Coalesced {
		t.Fatalf("repeat on the affinity target was not served by the memo: %+v", v3)
	}
}

// TestRouterSSEResume: the router's own event stream carries monotonic
// id: frames and honors Last-Event-ID, mirroring the instance surface.
func TestRouterSSEResume(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	payload := `{"workload":"bfs","policy":"static","scale":8,"sms":2}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	waitRouterJob(t, r.Job(view.ID), time.Minute)

	// First read: full stream, ids strictly monotonic from 0.
	ids := streamIDs(t, ts, view.ID, "")
	if len(ids) < 2 || ids[0] != 0 {
		t.Fatalf("full stream ids = %v, want monotonic from 0", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("ids not monotonic: %v", ids)
		}
	}
	// Resume: Last-Event-ID = first frame -> replay starts at exactly +1.
	resumed := streamIDs(t, ts, view.ID, "0")
	if len(resumed) != len(ids)-1 || resumed[0] != 1 {
		t.Fatalf("resumed ids = %v, want %v", resumed, ids[1:])
	}
}

func streamIDs(t *testing.T, ts *httptest.Server, jobID, lastEventID string) []int {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+jobID+"/events", nil)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id:") {
			var n int
			fmt.Sscanf(sc.Text(), "id: %d", &n)
			ids = append(ids, n)
		}
	}
	return ids
}

// TestChaosMatrix holds the batch invariants under each seeded fault
// class: results byte-identical to a single-instance run, no job lost or
// double-counted, resilience counters exposed on /metrics.
func TestChaosMatrix(t *testing.T) {
	reqs := chaosBatch()
	want := baselineReports(t, reqs)

	eventsBlackhole := func() chaos.Schedule {
		var hit atomic.Bool
		return func(i int, r *http.Request) chaos.Fault {
			if strings.HasSuffix(r.URL.Path, "/events") && hit.CompareAndSwap(false, true) {
				return chaos.FaultBlackhole
			}
			return chaos.FaultNone
		}
	}

	cases := []struct {
		name      string
		schedules func() []chaos.Schedule
		latency   time.Duration
		// wantCounter names a metric that must be nonzero after the run —
		// proof the fault actually exercised the resilience path.
		wantCounter string
	}{
		{
			// Seeded latency spikes on ~40% of requests: absorbed by
			// deadlines, no retries required, nothing lost.
			name:    "latency-spike",
			latency: 100 * time.Millisecond,
			schedules: func() []chaos.Schedule {
				return []chaos.Schedule{
					chaos.Seeded(11, 0.4, chaos.FaultLatency),
					chaos.Seeded(12, 0.4, chaos.FaultLatency),
					chaos.Seeded(13, 0.4, chaos.FaultLatency),
				}
			},
		},
		{
			// Every instance RSTs its first two job-API exchanges: the
			// submit path must retry, fail over, and circle back.
			name: "connection-reset",
			schedules: func() []chaos.Schedule {
				return []chaos.Schedule{
					chaos.FirstN(2, chaos.FaultReset, "/v1/jobs"),
					chaos.FirstN(2, chaos.FaultReset, "/v1/jobs"),
					chaos.FirstN(2, chaos.FaultReset, "/v1/jobs"),
				}
			},
			wantCounter: "cluster.retries",
		},
		{
			// Every instance 503s its first two job-API exchanges — a
			// fleet-wide burst; health probes stay clean so the burst is
			// absorbed by the request-path retry loop, not ejection.
			name: "5xx-burst",
			schedules: func() []chaos.Schedule {
				return []chaos.Schedule{
					chaos.FirstN(2, chaos.Fault5xx, "/v1/jobs"),
					chaos.FirstN(2, chaos.Fault5xx, "/v1/jobs"),
					chaos.FirstN(2, chaos.Fault5xx, "/v1/jobs"),
				}
			},
			wantCounter: "cluster.retries",
		},
		{
			// The first event stream is black-holed: bytes stop flowing on
			// a live connection. The stall watchdog must trip and the
			// stream resume with Last-Event-ID.
			name: "blackholed-stream",
			schedules: func() []chaos.Schedule {
				return []chaos.Schedule{eventsBlackhole(), eventsBlackhole(), eventsBlackhole()}
			},
			wantCounter: "cluster.stream_resumes",
		},
		{
			// The full seeded mix at 25% fault probability — the closest
			// to production weather, still replayable from the seeds.
			name:    "seeded-mix",
			latency: 50 * time.Millisecond,
			schedules: func() []chaos.Schedule {
				return []chaos.Schedule{
					chaos.Seeded(101, 0.25),
					chaos.Seeded(102, 0.25),
					chaos.Seeded(103, 0.25),
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet := startFleet(t, tc.schedules(), tc.latency)
			r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
			runBatchAndVerify(t, r, reqs, want)
			assertMetricsExposed(t, r)
			if tc.wantCounter != "" {
				if got := r.Metrics().Counter(tc.wantCounter).Value(); got == 0 {
					t.Fatalf("%s = 0: the fault class never exercised its resilience path", tc.wantCounter)
				}
			}
		})
	}
}

// waitAssigned polls until the router has placed the job on an instance.
func waitAssigned(t *testing.T, j *Job, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if v := j.View(); v.Instance != "" {
			return v.Instance
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never assigned to an instance", j.ID)
	return ""
}

// TestChaosKillInstanceMidJob: the hardest fault class — the instance
// holding a running job dies (its proxy severs every connection). The
// router must detect the loss, fail the placement over, and deliver a
// result byte-identical to an undisturbed run.
func TestChaosKillInstanceMidJob(t *testing.T) {
	slow := service.SubmitRequest{Kasm: slowKasm, Policy: "static"}
	want := baselineReports(t, []service.SubmitRequest{slow})

	fleet := startFleet(t, []chaos.Schedule{chaos.Clean, chaos.Clean, chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))

	j, body := r.Submit(slow)
	if body != nil {
		t.Fatal(body)
	}
	victim := waitAssigned(t, j, 10*time.Second)
	for _, b := range fleet {
		if strings.Contains(b.px.URL(), victim) {
			b.px.Kill()
		}
	}
	// The fleet keeps serving new work while the failover is in flight.
	fast := chaosBatch()[:2]
	var fastJobs []*Job
	for _, req := range fast {
		fj, body := r.Submit(req)
		if body != nil {
			t.Fatal(body)
		}
		fastJobs = append(fastJobs, fj)
	}
	v := waitRouterJob(t, j, 90*time.Second)
	if v.State != service.StateDone {
		t.Fatalf("job after instance kill: state %q, error %+v", v.State, v.Error)
	}
	if v.Result.Report != want[j.FP] {
		t.Fatalf("failover result diverged from baseline:\nwant:\n%s\ngot:\n%s",
			want[j.FP], v.Result.Report)
	}
	if v.Instance == victim {
		t.Fatalf("job claims to have finished on the killed instance %s", victim)
	}
	if v.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (a real failover)", v.Attempts)
	}
	for _, fj := range fastJobs {
		if fv := waitRouterJob(t, fj, 90*time.Second); fv.State != service.StateDone {
			t.Fatalf("concurrent job %s: state %q", fj.ID, fv.State)
		}
	}
	if got := r.Metrics().Counter("cluster.failovers").Value(); got < 1 {
		t.Fatalf("failovers = %d, want >= 1", got)
	}
	if got := r.Metrics().Counter("cluster.jobs_done").Value(); got != int64(1+len(fast)) {
		t.Fatalf("jobs_done = %d, want %d (no loss, no double count)", got, 1+len(fast))
	}
}

// TestDrainReroutesWithoutDroppingInFlight: an instance receives SIGTERM
// (service.Drain) while running a routed job. The invariant pair: the
// in-flight job completes where it is — drain never abandons accepted
// work — while new work routes to the remaining instances; nothing is
// dropped or duplicated.
func TestDrainReroutesWithoutDroppingInFlight(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean, chaos.Clean, chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))

	slow := service.SubmitRequest{Kasm: slowKasm, Policy: "static"}
	j, body := r.Submit(slow)
	if body != nil {
		t.Fatal(body)
	}
	victim := waitAssigned(t, j, 10*time.Second)
	var drained *backend
	for _, b := range fleet {
		if strings.Contains(b.px.URL(), victim) {
			drained = b
		}
	}
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drainErr <- drained.svc.Drain(ctx)
	}()
	// Wait until the drain is externally visible, then submit new work.
	waitFor(t, 5*time.Second, func() bool { return drained.svc.Draining() })
	var newJobs []*Job
	for _, req := range chaosBatch()[:3] {
		nj, body := r.Submit(req)
		if body != nil {
			t.Fatal(body)
		}
		newJobs = append(newJobs, nj)
	}
	for _, nj := range newJobs {
		v := waitRouterJob(t, nj, 90*time.Second)
		if v.State != service.StateDone {
			t.Fatalf("job %s during drain: state %q, error %+v", nj.ID, v.State, v.Error)
		}
		if v.Instance == victim {
			t.Fatalf("job %s was routed to the draining instance %s", nj.ID, victim)
		}
	}
	// The in-flight job completed exactly where it was, in one attempt.
	v := waitRouterJob(t, j, 90*time.Second)
	if v.State != service.StateDone || v.Instance != victim || v.Attempts != 1 {
		t.Fatalf("in-flight job across drain: state=%q instance=%s attempts=%d, want done/%s/1",
			v.State, v.Instance, v.Attempts, victim)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("instance drain did not complete cleanly: %v", err)
	}
	if got := r.Metrics().Counter("cluster.jobs_done").Value(); got != 4 {
		t.Fatalf("jobs_done = %d, want 4 (nothing dropped or duplicated)", got)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestJournalFailoverReplay: a router dies holding accepted-but-
// unfinished jobs. Its successor replays them from the journal under
// their original IDs and completes them; finished jobs are not re-run.
func TestJournalFailoverReplay(t *testing.T) {
	jpath := t.TempDir() + "/router.jsonl"

	// A dead address: reserve a port, then close the listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	cfg1 := testRouterConfig([]string{deadURL})
	cfg1.JournalPath = jpath
	r1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r1.Start()
	req := service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2}
	j1, body := r1.Submit(req)
	if body != nil {
		t.Fatal(body)
	}
	// Give routing a moment to fail against the dead instance, then
	// crash the router with the job unfinished.
	time.Sleep(50 * time.Millisecond)
	if service.Terminal(j1.State()) {
		t.Fatalf("job unexpectedly terminal against a dead fleet: %s", j1.State())
	}
	r1.Close()

	want := baselineReports(t, []service.SubmitRequest{req})
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean}, 0)
	cfg2 := testRouterConfig(fleetURLs(fleet))
	cfg2.JournalPath = jpath
	r2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r2.Close)
	replayed := r2.Job(j1.ID)
	if replayed == nil {
		t.Fatalf("journal replay lost job %s", j1.ID)
	}
	r2.Start()
	v := waitRouterJob(t, replayed, 90*time.Second)
	if v.State != service.StateDone || v.Result.Report != want[replayed.FP] {
		t.Fatalf("replayed job: state=%q, report matches baseline=%v",
			v.State, v.Result != nil && v.Result.Report == want[replayed.FP])
	}
	if got := r2.Metrics().Counter("cluster.jobs_replayed").Value(); got != 1 {
		t.Fatalf("jobs_replayed = %d, want 1", got)
	}

	// New submissions on the successor must not collide with the
	// replayed ID space.
	j2, body := r2.Submit(service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 4, SMs: 1})
	if body != nil {
		t.Fatal(body)
	}
	if j2.ID == j1.ID {
		t.Fatalf("successor reused the replayed job ID %s", j2.ID)
	}
	waitRouterJob(t, j2, 90*time.Second)
}

// TestRouterJournalCrashRestartAppendRestart: a router restarted over
// a torn journal tail must append its own records on a fresh line, or
// the restart after that refuses the journal as mid-file corruption.
func TestRouterJournalCrashRestartAppendRestart(t *testing.T) {
	jpath := t.TempDir() + "/router.jsonl"
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean}, 0)
	cfg := testRouterConfig(fleetURLs(fleet))
	cfg.JournalPath = jpath
	run := func(req service.SubmitRequest) {
		t.Helper()
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer r.Close()
		r.Start()
		j, body := r.Submit(req)
		if body != nil {
			t.Fatal(body)
		}
		if v := waitRouterJob(t, j, 90*time.Second); v.State != service.StateDone {
			t.Fatalf("job %s state = %q", j.ID, v.State)
		}
	}
	run(service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2})
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"r0000`); err != nil { // crash mid-append
		t.Fatal(err)
	}
	f.Close()
	run(service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 16, SMs: 1})

	r3, err := New(cfg)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	r3.Close()
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := jsonl.Read[service.JournalRecord](bytes.NewReader(data))
	if err != nil || torn != 0 {
		t.Fatalf("journal after restarts: torn=%d err=%v", torn, err)
	}
	var accepts []string
	for _, rec := range recs {
		if rec.Op == "accept" {
			accepts = append(accepts, rec.ID)
		}
	}
	if len(accepts) != 2 {
		t.Fatalf("accept records %v, want one per submitted job", accepts)
	}
}

// TestRouterJournalIDsNotReusedAfterRestart: router IDs are never
// reused across restarts. After a restart with nothing pending, a new
// job must not take the finished job's ID — or a crash before it
// finishes would let the old finish record hide it from the replay.
func TestRouterJournalIDsNotReusedAfterRestart(t *testing.T) {
	jpath := t.TempDir() + "/router.jsonl"
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean}, 0)
	cfg := testRouterConfig(fleetURLs(fleet))
	cfg.JournalPath = jpath
	req := service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2}

	r1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Start()
	a, body := r1.Submit(req)
	if body != nil {
		t.Fatal(body)
	}
	if v := waitRouterJob(t, a, 90*time.Second); v.State != service.StateDone {
		t.Fatalf("first job state = %q", v.State)
	}
	r1.Close()

	// The second router never starts routing (its only instance is a
	// closed port), so its job is accepted and journaled but unfinished
	// when it "crashes".
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadCfg := testRouterConfig([]string{"http://" + ln.Addr().String()})
	ln.Close()
	deadCfg.JournalPath = jpath
	r2, err := New(deadCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, body := r2.Submit(req)
	if body != nil {
		t.Fatal(body)
	}
	r2.Close()

	if a.ID != "r000001" || b.ID != "r000002" {
		t.Fatalf("IDs across a restart = %s, %s; want r000001, r000002", a.ID, b.ID)
	}
	r3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if len(r3.replays) != 1 || r3.replays[0].ID != b.ID {
		t.Fatalf("replays = %d job(s), want exactly the unfinished %s", len(r3.replays), b.ID)
	}
}

// TestRouterRefusesOversizedBody: the router admits exactly the bodies
// an instance would, so an oversized submission is a typed 413 at the
// fleet's front door rather than a journal record no restart can replay.
func TestRouterRefusesOversizedBody(t *testing.T) {
	r, err := New(Config{Instances: []string{"http://127.0.0.1:1"}, JournalPath: t.TempDir() + "/router.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()
	body := fmt.Sprintf(`{"workload":"bfs","client":%q}`, strings.Repeat("a", service.MaxSubmitBytes))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Error *service.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || got.Error == nil {
		t.Fatalf("no error body (%v)", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || got.Error.Code != service.CodeTooLarge {
		t.Fatalf("status %d code %q, want 413 %s", resp.StatusCode, got.Error.Code, service.CodeTooLarge)
	}
}

// TestRouterDrainRejectsAndCompletes: a draining router 503s new
// submissions with Retry-After while finishing accepted ones.
func TestRouterDrainRejectsAndCompletes(t *testing.T) {
	fleet := startFleet(t, []chaos.Schedule{chaos.Clean}, 0)
	r := startRouter(t, testRouterConfig(fleetURLs(fleet)))
	j, body := r.Submit(service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2})
	if body != nil {
		t.Fatal(body)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done <- r.Drain(ctx)
	}()
	waitFor(t, 5*time.Second, r.Draining)
	if _, body := r.Submit(service.SubmitRequest{Workload: "bfs", Policy: "static"}); body == nil ||
		body.Code != service.CodeDraining || body.RetryAfterSec == 0 {
		t.Fatalf("draining router accepted a job (or lacks Retry-After): %+v", body)
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := j.View(); v.State != service.StateDone {
		t.Fatalf("accepted job across router drain: %q", v.State)
	}
}
