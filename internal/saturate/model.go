package saturate

import (
	"slices"

	"regmutex/internal/obs"
	"regmutex/internal/workspec"
)

// modelJob is one arrival flowing through the virtual-time queue, all
// times in integer microseconds from the step's start.
type modelJob struct {
	at       int64 // arrival offset
	class    string
	measured bool // arrived inside the measure window

	route, wait, run, stream int64 // per-stage durations
	finish                   int64 // completion time (stream included)
}

func (j *modelJob) e2e() int64 { return j.finish - j.at }

// simulateStep runs one ladder rung's compiled schedule through the
// c-server FCFS queue model: each job pays the fixed route overhead,
// waits for the earliest-free server, is served for its calibrated
// cycle cost converted at CyclesPerSec, then pays the stream overhead.
// Pure integer arithmetic over the schedule's microsecond offsets —
// nothing here reads a clock, so identical inputs give identical
// outputs everywhere.
func simulateStep(sched *workspec.Schedule, costs map[uint64]int64, m Model, settleUs, horizonUs int64) []modelJob {
	free := make([]int64, m.Servers)
	jobs := make([]modelJob, 0, len(sched.Items))
	for _, it := range sched.Items {
		at := it.At.Microseconds()
		cost := costs[it.Req.Fingerprint()]
		run := cost * 1_000_000 / m.CyclesPerSec
		if run < 1 {
			run = 1
		}
		// Earliest-free server, lowest index on ties — deterministic.
		srv := 0
		for i := 1; i < len(free); i++ {
			if free[i] < free[srv] {
				srv = i
			}
		}
		ready := at + m.RouteOverheadUs
		start := ready
		if free[srv] > start {
			start = free[srv]
		}
		free[srv] = start + run
		j := modelJob{
			at:       at,
			class:    it.SLOClass,
			measured: at >= settleUs && at < horizonUs,
			route:    m.RouteOverheadUs,
			wait:     start - ready,
			run:      run,
			stream:   m.StreamOverheadUs,
			finish:   start + run + m.StreamOverheadUs,
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// StageQ is the quantile summary of one latency component (µs).
type StageQ struct {
	P50Us int64 `json:"p50_us"`
	P99Us int64 `json:"p99_us"`
	MaxUs int64 `json:"max_us"`
}

// ClassBreakdown decomposes one SLO class's end-to-end latency at one
// ladder step into per-stage components.
type ClassBreakdown struct {
	Count  int    `json:"count"`
	E2E    StageQ `json:"e2e"`
	Route  StageQ `json:"route"`
	Queue  StageQ `json:"queue"`
	Run    StageQ `json:"run"`
	Stream StageQ `json:"stream"`
}

// quantiles summarizes a sample set with obs.NearestRank quantiles.
func quantiles(vals []int64) StageQ {
	if len(vals) == 0 {
		return StageQ{}
	}
	sorted := append([]int64(nil), vals...)
	slices.Sort(sorted)
	return StageQ{
		P50Us: obs.NearestRank(sorted, 0.50),
		P99Us: obs.NearestRank(sorted, 0.99),
		MaxUs: sorted[len(sorted)-1],
	}
}

// summarize folds one step's simulated jobs into the step result:
// goodput counts measured jobs that completed inside the step's
// horizon, latency quantiles cover every measured job, and each SLO
// class gets its per-stage decomposition.
func summarize(step int, offered float64, jobs []modelJob, measureSec float64, horizonUs int64) StepResult {
	res := StepResult{
		Step:          step,
		OfferedPerSec: offered,
		Arrivals:      len(jobs),
		Classes:       map[string]*ClassBreakdown{},
	}
	var e2e []int64
	stage := map[string]map[string][]int64{} // class -> stage -> samples
	for i := range jobs {
		j := &jobs[i]
		if !j.measured {
			continue
		}
		res.Measured++
		if j.finish <= horizonUs {
			res.Completed++
		}
		e2e = append(e2e, j.e2e())
		byClass := stage[j.class]
		if byClass == nil {
			byClass = map[string][]int64{}
			stage[j.class] = byClass
		}
		byClass["e2e"] = append(byClass["e2e"], j.e2e())
		byClass["route"] = append(byClass["route"], j.route)
		byClass["queue"] = append(byClass["queue"], j.wait)
		byClass["run"] = append(byClass["run"], j.run)
		byClass["stream"] = append(byClass["stream"], j.stream)
	}
	if measureSec > 0 {
		res.GoodputPerSec = float64(res.Completed) / measureSec
	}
	q := quantiles(e2e)
	res.P50Us, res.P99Us, res.MaxUs = q.P50Us, q.P99Us, q.MaxUs
	for class, byClass := range stage {
		res.Classes[class] = &ClassBreakdown{
			Count:  len(byClass["e2e"]),
			E2E:    quantiles(byClass["e2e"]),
			Route:  quantiles(byClass["route"]),
			Queue:  quantiles(byClass["queue"]),
			Run:    quantiles(byClass["run"]),
			Stream: quantiles(byClass["stream"]),
		}
	}
	return res
}
