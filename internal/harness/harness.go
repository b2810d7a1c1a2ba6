// Package harness regenerates every table and figure of the paper's
// evaluation (section IV) on the simulator: the same applications, the
// same machine configurations, the same metrics, printed as the rows the
// plots were drawn from.
//
// There is one study path. A driver lays out its rows as cells (a
// RunSpec plus a policy), runs them all through one RunCells call and
// computes each row from its cells' Runs. One failure rule covers every
// study: a failed cell fails only its row, which prints as ERR(<kind>),
// stays out of the averages and is counted by RunExperiment.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"regmutex/internal/isa"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// Options scales and seeds an experiment run.
type Options struct {
	// Scale divides every workload's grid; 1 is the full evaluation,
	// larger values make quick runs for tests and benchmarks.
	Scale int
	// Seed drives the deterministic input generators.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, so a zero seed is honored
	// instead of being replaced by the default (42). The flag layer sets
	// it when the user passes -seed.
	SeedSet bool
	// Timing overrides the simulator's timing model when non-zero.
	Timing sim.Timing
	// NumSMs overrides the device's SM count when non-zero (scaled-down
	// devices keep relative results while running much faster).
	NumSMs int
	// Jobs caps how many simulations run concurrently when normalize has
	// to create a pool: 0 = all cores, 1 = the serial path.
	Jobs int
	// Pool fans simulations out across workers and caches results under
	// RunSpec.key (policy, kernel fingerprint, machine, seed, input,
	// timing, audit). Sharing one pool across experiments (as
	// cmd/paperbench does) lets sweeps reuse each other's baselines;
	// normalize creates a private pool when the caller leaves it nil.
	Pool *runpool.Pool
	// Audit attaches the invariant auditor (internal/audit) to every
	// simulation. Defaults to on under `go test` and off otherwise;
	// AuditSet marks an explicit choice (the -audit flag sets it).
	Audit    bool
	AuditSet bool
	// Trace, when non-nil, attaches an obs.Collector to every simulation,
	// feeding this shared ring buffer. Each run's events are tagged with a
	// "<workload>/<policy>" process lane, so one exported Chrome trace
	// holds every simulation of the sweep side by side.
	Trace *obs.Trace
	// Metrics, when non-nil, receives every finished run's Stats as
	// "<workload>/<policy>.*" gauges (see obs.RecordStats).
	Metrics *obs.Registry
	// Ctx cancels the experiment: every simulation submitted under these
	// Options joins the context's single-flight interest group
	// (runpool.SubmitKeyedCtx), so canceling it aborts in-flight
	// simulations — unless another live submitter shares them. Nil means
	// context.Background() (the CLI behavior: never canceled).
	Ctx context.Context
}

func (o Options) normalize() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = 42
	}
	if o.Timing.MaxCycles == 0 {
		o.Timing = sim.DefaultTiming()
	}
	if o.Pool == nil {
		o.Pool = runpool.New(o.Jobs)
	}
	if !o.AuditSet {
		o.Audit = testing.Testing()
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

func (o Options) machine(base occupancy.Config) occupancy.Config {
	if o.NumSMs > 0 {
		base.NumSMs = o.NumSMs
	}
	return base
}

// Spec is the one Options→RunSpec mapping: workload w's kernel k on
// machine cfg with o's seed, timing, auditor and pool, plus
// o's Trace and Metrics attached as observers under a
// "<workload>/<policy>" lane. Experiments and hypo submit through it.
// o is normalized here, so callers fanning out many runs should set a
// shared o.Pool.
func (o Options) Spec(cfg occupancy.Config, w *workloads.Workload, k *isa.Kernel) RunSpec {
	o = o.normalize()
	spec := RunSpec{Machine: cfg, Timing: o.Timing, Kernel: k, Workload: w, Seed: o.Seed,
		Audit: o.Audit, Pool: o.Pool}
	if o.Trace == nil && o.Metrics == nil {
		return spec
	}
	spec.Observe = func(policy string) ([]sim.Option, func(sim.Stats)) {
		lane := w.Name + "/" + policy
		var opts []sim.Option
		var col *obs.Collector
		if o.Trace != nil {
			col = obs.NewCollector(o.Trace)
			col.Proc = lane
			opts = append(opts, sim.WithObserver(col))
		}
		return opts, func(st sim.Stats) {
			if col != nil {
				col.Flush(st.Cycles)
			}
			obs.RecordStats(o.Metrics, lane, st)
		}
	}
	return spec
}

// ErrKind classifies a failed row for rendering (`ERR(<kind>)`): the
// simulator's typed failure classes, or "error" for anything else.
func ErrKind(err error) string {
	switch {
	case errors.Is(err, sim.ErrCanceled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, sim.ErrInvariant):
		return "invariant"
	case errors.Is(err, sim.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, sim.ErrLivelock):
		return "livelock"
	case errors.Is(err, sim.ErrNoWarpSlot):
		return "no-warp-slot"
	default:
		return "error"
	}
}

// The study sets. They are variables so a test can put a wedging kernel
// into every study.
var (
	fig7Set = workloads.Fig7Set
	fig8Set = workloads.Fig8Set
	allSet  = workloads.All
)

// study runs every row's cells through one RunCells call and returns
// each row's outcomes in cell order.
func (o Options) study(rows [][]Cell) [][]CellRun {
	var cells []Cell
	for _, r := range rows {
		cells = append(cells, r...)
	}
	runs, _ := RunCells(o.Ctx, cells)
	out := make([][]CellRun, len(rows))
	for i, r := range rows {
		out[i], runs = runs[:len(r)], runs[len(r):]
	}
	return out
}

// rowErr is the one failure rule: a row fails with its first failed
// cell's error, and only that row fails.
func rowErr(runs []CellRun) error {
	for _, r := range runs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// errRow prints a failed row as its name and ERR(<kind>) and reports
// whether it did, so printers skip the row's values and averages.
func errRow(wr io.Writer, name string, err error) bool {
	if err == nil {
		return false
	}
	fmt.Fprintf(wr, "%-16s %12s\n", name, "ERR("+ErrKind(err)+")")
	return true
}

// pct returns the percentage change from base to v: positive = reduction.
func reductionPct(base, v int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(v)/float64(base))
}

func increasePct(base, v int64) float64 { return -reductionPct(base, v) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// section prints a figure/table header.
func section(wr io.Writer, title string) {
	fmt.Fprintf(wr, "\n==== %s ====\n", title)
}
