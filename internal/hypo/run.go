package hypo

import (
	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// RunOptions configures one engine invocation (everything experimental
// lives in the Spec; these are execution knobs only, none of which may
// change a verdict or a report byte).
type RunOptions struct {
	// Pool fans cells out across workers with memo reuse; nil builds a
	// private pool with Jobs workers. cmd/hypo shares one pool across a
	// whole directory tree so hypotheses reuse each other's baselines.
	Pool *runpool.Pool
	// Jobs is the private pool's worker count when Pool is nil
	// (0 = all cores, 1 = serial).
	Jobs int
	// Par is each simulation's intra-run parallelism (results are
	// byte-identical at any value).
	Par int
}

// SeedRun is one (cell, seed) simulation's measured metrics.
type SeedRun struct {
	Seed uint64 `json:"seed"`
	// Values holds every spec metric for a clean run; nil when it failed.
	Values map[string]float64 `json:"values,omitempty"`
	// Err is the typed failure class ("deadlock", "livelock", ...) —
	// stable vocabulary, so reports stay deterministic even on failure.
	Err string `json:"err,omitempty"`
}

// Agg summarizes one metric across a cell's seeds, computed from an obs
// histogram so means and quantiles share one deterministic code path
// with the service telemetry.
type Agg struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	Max  float64 `json:"max"`
	N    int64   `json:"n"`
}

// CellResult is one matrix cell's runs and aggregates.
type CellResult struct {
	Cell  Cell           `json:"cell"`
	Seeds []SeedRun      `json:"seeds"`
	Agg   map[string]Agg `json:"agg,omitempty"`
	// Failed counts seeds that did not produce Stats.
	Failed int `json:"failed,omitempty"`
}

// Result is one hypothesis's full outcome: every cell's measurements,
// the comparison's analysis, and the verdict. Marshaling it is the JSON
// report; WriteFindings renders the Markdown report.
type Result struct {
	Name        string       `json:"name"`
	Title       string       `json:"title"`
	Hypothesis  string       `json:"hypothesis"`
	CompareType string       `json:"compare_type"`
	Seeds       []uint64     `json:"seeds"`
	Metrics     []string     `json:"metrics"`
	Cells       []CellResult `json:"cells"`
	Analysis    Analysis     `json:"analysis"`
	Verdict     string       `json:"verdict"`
	FailedRuns  int          `json:"failed_runs"`

	spec *Spec
}

// machineConfig resolves a cell's machine + SM override.
func machineConfig(c Cell) occupancy.Config {
	cfg := occupancy.GTX480()
	if c.Machine == MachineGTX480Half {
		cfg = occupancy.GTX480Half()
	}
	if c.SMs > 0 {
		cfg.NumSMs = c.SMs
	}
	return cfg
}

// cellTiming resolves a cell's timing knobs over the defaults.
func cellTiming(c Cell) sim.Timing {
	t := sim.DefaultTiming()
	if c.GlobalLatency > 0 {
		t.GlobalLatency = c.GlobalLatency
	}
	if c.MaxInFlightMem > 0 {
		t.MaxInFlightMem = c.MaxInFlightMem
	}
	return t
}

// Run expands the spec's matrix, runs every cell × seed through the
// pool at full parallelism (memoized under the same keys the figure
// sweeps use), aggregates, analyzes, and returns the verdict-bearing
// Result. The error return is reserved for spec-level problems; run
// failures land in the Result (Failed cells, Inconclusive verdict).
func Run(spec *Spec, ro RunOptions) (*Result, error) {
	cells, err := spec.expand()
	if err != nil {
		return nil, err
	}
	pool := ro.Pool
	if pool == nil {
		pool = runpool.New(ro.Jobs)
	}

	// Kernels are built once per (workload, scale): Build can be as
	// expensive as a short simulation, and sharing the pointer lets the
	// pool's fingerprint-keyed memo unify identical cells.
	type kkey struct {
		workload string
		scale    int
	}
	kernels := map[kkey]*isa.Kernel{}
	kernel := func(c Cell) (*isa.Kernel, *workloads.Workload, error) {
		w, err := workloads.ByName(c.Workload)
		if err != nil {
			return nil, nil, err
		}
		k := kernels[kkey{c.Workload, c.Scale}]
		if k == nil {
			k = w.Build(c.Scale)
			kernels[kkey{c.Workload, c.Scale}] = k
		}
		return k, w, nil
	}

	// Fan out every (cell, seed) submission before waiting on any, so
	// the pool sees the whole matrix at once; collection order is the
	// deterministic cell × seed order regardless of completion order.
	type pending struct{ fut harness.StatsFuture }
	pend := make([]pending, 0, len(cells)*len(spec.Seeds))
	for _, c := range cells {
		k, w, err := kernel(c)
		if err != nil {
			return nil, err
		}
		cfg := machineConfig(c)
		timing := cellTiming(c)
		for _, seed := range spec.Seeds {
			o := harness.Options{
				Scale: c.Scale, Seed: seed, SeedSet: true,
				Timing: timing, Par: ro.Par, Pool: pool,
			}
			fut, err := harness.SubmitNamed(o, cfg, w, k, c.Policy)
			if err != nil {
				return nil, err
			}
			pend = append(pend, pending{fut})
		}
	}

	res := &Result{
		Name: spec.Name, Title: spec.Title, Hypothesis: spec.Hypothesis,
		CompareType: spec.Compare.Type, Seeds: spec.Seeds, Metrics: spec.Metrics,
		spec: spec,
	}
	i := 0
	for _, c := range cells {
		cr := CellResult{Cell: c, Agg: map[string]Agg{}}
		hists := make([]*obs.Histogram, len(spec.Metrics))
		for m := range hists {
			hists[m] = &obs.Histogram{}
		}
		for _, seed := range spec.Seeds {
			st, err := pend[i].fut.Wait()
			i++
			sr := SeedRun{Seed: seed}
			if err != nil {
				sr.Err = harness.ErrKind(err)
				cr.Failed++
				res.FailedRuns++
			} else {
				sr.Values = make(map[string]float64, len(spec.Metrics))
				for mi, m := range spec.Metrics {
					v := metricValue(st, m)
					sr.Values[m] = v
					hists[mi].Observe(v)
				}
			}
			cr.Seeds = append(cr.Seeds, sr)
		}
		for mi, m := range spec.Metrics {
			s := hists[mi].Snapshot()
			if s.Count == 0 {
				continue
			}
			cr.Agg[m] = Agg{Mean: s.Mean(), P50: s.Quantile(0.5), P90: s.Quantile(0.9), Max: s.Max, N: s.Count}
		}
		res.Cells = append(res.Cells, cr)
	}

	analyze(spec, res)
	return res, nil
}

// value reads one metric for one seed index; ok is false when the run
// failed.
func (cr *CellResult) value(metric string, seedIdx int) (float64, bool) {
	sr := cr.Seeds[seedIdx]
	if sr.Values == nil {
		return 0, false
	}
	return sr.Values[metric], true
}

// aggValue reads a cross-seed aggregate by name ("mean" | "p50" | "p90"
// | "max").
func (cr *CellResult) aggValue(metric, aggregate string) (float64, bool) {
	a, ok := cr.Agg[metric]
	if !ok {
		return 0, false
	}
	switch aggregate {
	case "mean":
		return a.Mean, true
	case "p50":
		return a.P50, true
	case "p90":
		return a.P90, true
	case "max":
		return a.Max, true
	}
	return 0, false
}

// selectCells returns the indices of cells matching sel, in cell order.
func selectCells(cells []CellResult, sel selector) []int {
	var out []int
	for i := range cells {
		if sel.matches(cells[i].Cell) {
			out = append(out, i)
		}
	}
	return out
}

// groupCells partitions cell indices by their values on the given axes
// (keep=true) or on every axis except the given ones (keep=false),
// preserving first-seen group order.
func groupCells(cells []CellResult, axes []string, keep bool) ([][]int, []string) {
	var useAxes []string
	if keep {
		useAxes = axes
	} else {
		drop := map[string]bool{}
		for _, a := range axes {
			drop[a] = true
		}
		for _, a := range axisNames {
			if !drop[a] {
				useAxes = append(useAxes, a)
			}
		}
	}
	var order []string
	byKey := map[string][]int{}
	for i := range cells {
		key := cells[i].Cell.labelOn(useAxes)
		if _, ok := byKey[key]; !ok {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	groups := make([][]int, len(order))
	for gi, key := range order {
		groups[gi] = byKey[key]
	}
	return groups, order
}
