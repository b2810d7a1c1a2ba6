package benchreg

import (
	"context"
	"fmt"

	"regmutex/internal/workspec"
)

// FleetPoint summarizes the router load phase: the same workload-spec
// schedule as the load phase, but through a gpusimrouter fronting three
// instances — with one instance killed mid-storm. The latency quantiles
// therefore price in real failovers, and the hit rate measures how well
// fingerprint affinity keeps duplicate work landing on warm memo caches
// while the fleet is degraded.
type FleetPoint struct {
	Spec        string  `json:"spec,omitempty"`
	SpecID      string  `json:"spec_id,omitempty"`
	Instances   int     `json:"instances"`
	Jobs        int     `json:"jobs"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// MemoHitRate is the fraction of jobs served without a fresh
	// simulation: coalesced by router single-flight or answered from an
	// instance memo cache.
	MemoHitRate float64   `json:"memo_hit_rate"`
	Failovers   int64     `json:"failovers"`
	Retries     int64     `json:"retries"`
	Latency     Quantiles `json:"latency_ms"`
	// Classes is the per-SLO-class breakdown under fleet degradation.
	Classes map[string]ClassPoint `json:"slo_classes,omitempty"`
}

// runFleetPhase boots three gpusimd instances and a router over
// loopback, drives the schedule through the router, and hard-kills one
// instance after a third of the submissions are in flight.
func runFleetPhase(sched *workspec.Schedule, o Options) (*FleetPoint, error) {
	const nInstances = 3
	jobs := len(sched.Items)
	var lb loopback
	defer lb.close()
	var urls []string
	var killFirst func()
	for i := 0; i < nInstances; i++ {
		_, url, stop, err := lb.instance(2, jobs+8, o.Par)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			killFirst = stop
		}
		urls = append(urls, url)
	}
	r, rurl, err := lb.router(urls)
	if err != nil {
		return nil, err
	}

	killAt := jobs / 3
	rr, err := workspec.Run(context.Background(), sched, workspec.RunnerOptions{
		BaseURL:  rurl,
		Compress: o.Compress,
		Logger:   o.Logger,
		OnSubmit: func(i int) {
			if i == killAt {
				// One instance dies under load: its in-flight jobs must fail
				// over and the rest of the storm route around it.
				killFirst()
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("benchreg fleet phase: %w", err)
	}

	m := r.Metrics()
	fp := &FleetPoint{
		Spec:        sched.SpecName,
		SpecID:      sched.SpecID,
		Instances:   nInstances,
		Jobs:        rr.Jobs,
		WallSeconds: rr.WallSeconds,
		JobsPerSec:  rr.JobsPerSec,
		MemoHitRate: rr.MemoHitRate,
		Failovers:   m.Counter("cluster.failovers").Value(),
		Retries:     m.Counter("cluster.retries").Value(),
		Latency:     quantilesOf(mergedLatency(rr)),
		Classes:     map[string]ClassPoint{},
	}
	for class, cs := range rr.Classes {
		fp.Classes[class] = ClassPoint{
			Jobs:      cs.Jobs,
			Failed:    cs.Failed,
			Coalesced: cs.Coalesced,
			Latency:   quantilesOf(cs.Latency),
		}
	}
	return fp, nil
}
