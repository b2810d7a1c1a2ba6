package workspec

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// stubDaemon speaks just enough of the gpusimd job API for the runner:
// POST /v1/jobs?wait=1 returns a done job, flagged coalesced when the
// request fingerprint was seen before — a perfect memo cache.
type stubDaemon struct {
	mu         sync.Mutex
	seen       map[uint64]int
	inFlight   int
	maxFlight  int
	submissons int
}

func (d *stubDaemon) handler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req service.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stub decode: %v", err)
		}
		d.mu.Lock()
		d.submissons++
		id := d.submissons
		d.inFlight++
		if d.inFlight > d.maxFlight {
			d.maxFlight = d.inFlight
		}
		fp := req.Fingerprint()
		coalesced := d.seen[fp] > 0
		d.seen[fp]++
		d.mu.Unlock()
		defer func() {
			d.mu.Lock()
			d.inFlight--
			d.mu.Unlock()
		}()
		json.NewEncoder(w).Encode(map[string]any{
			"id": fmt.Sprintf("j%06d", id), "state": "done", "coalesced": coalesced,
		})
	}
}

func smokeSchedule(t *testing.T) *Schedule {
	t.Helper()
	spec, err := ParseFile("../../examples/workloads/load-smoke.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestRunnerDrivesScheduleWithClassMetrics(t *testing.T) {
	sched := smokeSchedule(t)
	stub := &stubDaemon{seen: map[uint64]int{}}
	srv := httptest.NewServer(stub.handler(t))
	defer srv.Close()

	reg := obs.NewRegistry()
	rr, err := Run(context.Background(), sched, RunnerOptions{
		BaseURL:     srv.URL,
		Compress:    100, // squeeze the ~1s spec into ~10ms of pacing
		MaxInFlight: 2,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Jobs != len(sched.Items) || stub.submissons != rr.Jobs {
		t.Fatalf("jobs = %d, submissions = %d, want %d", rr.Jobs, stub.submissons, len(sched.Items))
	}
	if stub.maxFlight > 2 {
		t.Fatalf("in-flight window violated: saw %d concurrent, cap 2", stub.maxFlight)
	}
	// Both SLO classes from the spec must report, with populated
	// histograms and the runner's observed coalescing.
	for _, class := range []string{"interactive", "batch"} {
		cs := rr.Classes[class]
		if cs == nil || cs.Jobs != 6 || cs.Failed != 0 {
			t.Fatalf("class %s stats wrong: %+v", class, cs)
		}
		if cs.Latency.Count != 6 || cs.Latency.Max <= 0 {
			t.Fatalf("class %s histogram empty: %+v", class, cs.Latency)
		}
		if snap := reg.Histogram("load." + class + ".latency_seconds").Snapshot(); snap.Count != 6 {
			t.Fatalf("registry series load.%s.latency_seconds has %d observations", class, snap.Count)
		}
	}
	// 12 requests over two 2-seed pools: duplicates are certain, and the
	// stub coalesces every repeat.
	if rr.Coalesced == 0 || rr.MemoHitRate <= 0 {
		t.Fatalf("no coalescing observed: %+v", rr)
	}
	if !equalFingerprints(rr.Fingerprints, sched.Fingerprints()) {
		t.Fatalf("submitted multiset diverged from schedule:\n run  %v\n sched %v",
			rr.Fingerprints, sched.Fingerprints())
	}
}

func TestRunnerAbortsOnFirstFailure(t *testing.T) {
	sched := smokeSchedule(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{
			"error": map[string]string{"code": "draining", "message": "shutting down"},
		})
	}))
	defer srv.Close()
	_, err := Run(context.Background(), sched, RunnerOptions{BaseURL: srv.URL, Compress: 1000})
	if err == nil {
		t.Fatal("runner succeeded against a failing daemon")
	}
	if !strings.Contains(err.Error(), "cohort") || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("error lost its cohort/cause attribution: %v", err)
	}
}

func TestRunnerHonorsContextCancel(t *testing.T) {
	sched := smokeSchedule(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Compress left at real time: without cancellation this would pace
	// for about a second; a cancelled context must abort immediately.
	_, err := Run(ctx, sched, RunnerOptions{BaseURL: "http://127.0.0.1:0"})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
}

func equalFingerprints(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
