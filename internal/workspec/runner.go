package workspec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"regmutex/internal/obs"
	"regmutex/internal/service"
)

// RunnerOptions tunes one schedule run against a daemon or router.
type RunnerOptions struct {
	// BaseURL is the gpusimd or gpusimrouter endpoint
	// ("http://127.0.0.1:8080").
	BaseURL string
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Compress divides every arrival offset: 2 replays a schedule at
	// twice real-time speed, 0 or 1 keeps it untouched. ASAP schedules
	// are unaffected (their offsets are zero).
	Compress float64
	// MaxInFlight caps concurrent outstanding requests (default 8) —
	// the closed-loop window that paces ASAP schedules.
	MaxInFlight int
	// Registry receives the per-SLO-class series (nil = private):
	//
	//	load.<class>.latency_seconds   histogram of ?wait=1 round trips
	//	load.<class>.jobs_done         counter
	//	load.<class>.jobs_failed       counter
	//	load.<class>.jobs_coalesced    counter (memo-served duplicates)
	Registry *obs.Registry
	// Logger narrates progress; nil discards.
	Logger *slog.Logger
}

// ClassStats is one SLO class's outcome.
type ClassStats struct {
	Jobs      int64                 `json:"jobs"`
	Failed    int64                 `json:"failed"`
	Coalesced int64                 `json:"coalesced"`
	Latency   obs.HistogramSnapshot `json:"-"`
}

// RunResult summarizes a completed schedule run.
type RunResult struct {
	Jobs        int
	WallSeconds float64
	JobsPerSec  float64
	Coalesced   int64
	// MemoHitRate is the client-observed fraction of jobs served
	// without a fresh simulation (coalesced / jobs).
	MemoHitRate float64
	Classes     map[string]*ClassStats
	// Fingerprints is the submitted per-request-fingerprint multiset —
	// the record→replay equality witness.
	Fingerprints map[uint64]int
}

// Run drives the schedule against BaseURL: each item is submitted as
// POST /v1/jobs?wait=1 at its (compressed) arrival offset, bounded by
// MaxInFlight, and its round-trip latency lands in its SLO class's
// histogram. The first failed job aborts the remainder of the
// schedule and surfaces as the returned error.
func Run(ctx context.Context, sched *Schedule, o RunnerOptions) (*RunResult, error) {
	client := o.Client
	if client == nil {
		client = http.DefaultClient
	}
	compress := o.Compress
	if compress <= 0 {
		compress = 1
	}
	inflight := o.MaxInFlight
	if inflight <= 0 {
		inflight = 8
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := o.Logger
	if log == nil {
		log = obs.NopLogger()
	}

	classes := map[string]bool{}
	for _, it := range sched.Items {
		classes[it.SLOClass] = true
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	aborted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	res := &RunResult{
		Jobs:         len(sched.Items),
		Classes:      map[string]*ClassStats{},
		Fingerprints: map[uint64]int{},
	}
	for _, it := range sched.Items {
		res.Fingerprints[it.Req.Fingerprint()]++
	}

	log.Info("schedule run", "spec", sched.SpecName, "items", len(sched.Items),
		"classes", len(classes), "compress", compress, "max_in_flight", inflight)
	sem := make(chan struct{}, inflight)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for _, it := range sched.Items {
		if aborted() {
			break
		}
		// Open-loop pacing: wait for the item's arrival time, then for a
		// free in-flight slot (ASAP items skip straight to the slot wait).
		if wait := time.Duration(float64(it.At) / compress); wait > 0 {
			if sleep := time.Until(start.Add(wait)); sleep > 0 {
				timer.Reset(sleep)
				select {
				case <-timer.C:
				case <-ctx.Done():
					fail(ctx.Err())
				}
			}
		}
		if aborted() {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(ctx.Err())
		}
		if aborted() {
			break
		}
		wg.Add(1)
		go func(it Item) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			view, err := SubmitWait(ctx, client, o.BaseURL, it.Req)
			reg.Histogram("load." + it.SLOClass + ".latency_seconds").Observe(time.Since(t0).Seconds())
			if err != nil {
				reg.Counter("load." + it.SLOClass + ".jobs_failed").Inc()
				fail(fmt.Errorf("cohort %s (slo %s): %w", it.Cohort, it.SLOClass, err))
				return
			}
			reg.Counter("load." + it.SLOClass + ".jobs_done").Inc()
			if view.Coalesced {
				reg.Counter("load." + it.SLOClass + ".jobs_coalesced").Inc()
			}
		}(it)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()
	if firstErr != nil {
		return nil, firstErr
	}
	if res.WallSeconds > 0 {
		res.JobsPerSec = float64(res.Jobs) / res.WallSeconds
	}
	for class := range classes {
		cs := &ClassStats{
			Jobs:      reg.Counter("load." + class + ".jobs_done").Value(),
			Failed:    reg.Counter("load." + class + ".jobs_failed").Value(),
			Coalesced: reg.Counter("load." + class + ".jobs_coalesced").Value(),
			Latency:   reg.Histogram("load." + class + ".latency_seconds").Snapshot(),
		}
		res.Classes[class] = cs
		res.Coalesced += cs.Coalesced
	}
	if res.Jobs > 0 {
		res.MemoHitRate = float64(res.Coalesced) / float64(res.Jobs)
	}
	return res, nil
}

// SubmitWait POSTs one request to base's /v1/jobs in synchronous mode
// (?wait=1) and returns the finished job's view. Daemons and routers
// both answer in the service.JobView shape. A refused submission, or a
// job that did not end done, is an error.
func SubmitWait(ctx context.Context, client *http.Client, base string, sr service.SubmitRequest) (service.JobView, error) {
	var view service.JobView
	body, err := json.Marshal(sr)
	if err != nil {
		return view, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error *service.ErrorBody `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&eb)
		if eb.Error != nil {
			return view, fmt.Errorf("submit: %w", eb.Error)
		}
		return view, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return view, err
	}
	if view.State != service.StateDone {
		return view, fmt.Errorf("job %s ended %q (%+v)", view.ID, view.State, view.Error)
	}
	return view, nil
}
