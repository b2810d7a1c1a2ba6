package harness

import (
	"context"
	"fmt"
	"io"

	"regmutex/internal/audit"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
)

// RunSpec describes one gpusim-style policy comparison: a kernel run
// under one or more register-allocation policies on one machine. It is
// the shared substrate behind the gpusim CLI and the gpusimd service, so
// a daemon-served report is byte-identical to the CLI's for the same
// request.
type RunSpec struct {
	Machine occupancy.Config
	// Timing overrides the timing model; a zero MaxCycles selects
	// sim.DefaultTiming().
	Timing sim.Timing
	Kernel *isa.Kernel
	// Name labels observability lanes ("<name>/<policy>"); defaults to
	// the kernel name.
	Name string
	// Input is the global memory contents; nil selects a zero-filled
	// heap sized by the kernel.
	Input []uint64
	// Seed records how Input was generated; it is part of the memo key
	// only (Input itself is what runs).
	Seed     uint64
	Policies []string
	// Audit attaches the invariant auditor to every run.
	Audit bool
	// Observe, when non-nil, is consulted per policy for extra device
	// options (trace collectors, progress observers) and an after-run
	// hook that sees the finished Stats. Observers never change Stats,
	// so runs with different observers share one memo entry.
	Observe func(policy string) (opts []sim.Option, after func(sim.Stats))
	// Pool fans the policies out and deduplicates identical runs via its
	// keyed memo cache (single-flight on the kernel fingerprint). Nil
	// creates a private all-cores pool.
	Pool *runpool.Pool
	// Par is each simulation's intra-run parallelism
	// (sim.WithParallelism). Like Options.Par it is deliberately absent
	// from the memo key: Stats are byte-identical at every worker count,
	// so observed and differently-parallel submissions coalesce.
	Par int
}

// PolicyRow is one policy's outcome in a comparison run.
type PolicyRow struct {
	Policy string
	Stats  sim.Stats
	Err    error
}

// key identifies one (kernel, machine, policy, seed, timing, audit)
// simulation for the pool's memo cache — the same shape as runKey, so
// the daemon's deduplication rides the existing fingerprint-keyed cache.
// Observability does not appear: observers are side channels that never
// change Stats (guarded by the obs detachment tests), so observed and
// unobserved submissions of the same point legitimately coalesce.
func (s RunSpec) key(policy string) string {
	return fmt.Sprintf("report|%s|%016x|%+v|seed=%d|in=%d|%+v|audit=%v",
		policy, s.Kernel.Fingerprint(), s.Machine, s.Seed, len(s.Input), s.timing(), s.Audit)
}

func (s RunSpec) timing() sim.Timing {
	if s.Timing.MaxCycles == 0 {
		return sim.DefaultTiming()
	}
	return s.Timing
}

func (s RunSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Kernel.Name
}

// RunPolicies simulates the spec's kernel under every requested policy,
// fanned out through the pool and deduplicated against any identical run
// already in its memo cache. Rows come back in request order; a failed
// policy fails only its own row. The returned hit count says how many of
// the submissions were served by the cache (the daemon's dedup metric).
//
// ctx cancels the whole comparison: in-flight simulations are abandoned
// via the pool's refcounted single-flight contexts (a simulation shared
// with another live submitter keeps running for them), and rows not yet
// collected report the cancellation.
func RunPolicies(ctx context.Context, spec RunSpec) ([]PolicyRow, int) {
	pool := spec.Pool
	if pool == nil {
		pool = runpool.New(0)
	}
	timing := spec.timing()
	hits := 0
	futs := make([]*runpool.Future, len(spec.Policies))
	for i, name := range spec.Policies {
		name := name
		var hit bool
		futs[i], hit = pool.SubmitKeyedCtx(ctx, spec.key(name), func(tctx context.Context) (any, error) {
			run, pol, err := PreparePolicy(spec.Machine, spec.Kernel, name)
			if err != nil {
				return nil, err
			}
			var global []uint64
			if spec.Input != nil {
				global = append([]uint64(nil), spec.Input...)
			}
			opts := []sim.Option{sim.WithPolicy(pol), sim.WithGlobal(global), sim.WithParallelism(spec.Par)}
			if spec.Audit {
				opts = append(opts, sim.WithAudit(audit.Standard(audit.DefaultEvery)))
			}
			var after func(sim.Stats)
			if spec.Observe != nil {
				extra, fin := spec.Observe(name)
				opts = append(opts, extra...)
				after = fin
			}
			d, err := sim.New(sim.DeviceSpec{Config: spec.Machine, Timing: timing, Kernel: run}, opts...)
			if err != nil {
				return nil, err
			}
			st, err := d.RunContext(tctx)
			if err != nil {
				return nil, err
			}
			if after != nil {
				after(st)
			}
			return st, nil
		})
		if hit {
			hits++
		}
	}
	rows := make([]PolicyRow, len(spec.Policies))
	for i, f := range futs {
		rows[i].Policy = spec.Policies[i]
		v, err := f.WaitCtx(ctx)
		if err != nil {
			rows[i].Err = err
			continue
		}
		rows[i].Stats = v.(sim.Stats)
	}
	return rows, hits
}

// RenderReport prints the gpusim policy comparison table: one row per
// policy with cycle/instruction counts, achieved occupancy, acquire
// success rate, per-SM IPC, the scoreboard/memory/acquire stall columns,
// and the cycle delta against the static baseline. beforeRow, when
// non-nil, runs before each successful row (the CLI's timeline hook).
// The return value counts failed (ERR) rows, which callers turn into a
// non-zero exit code.
func RenderReport(w io.Writer, machine occupancy.Config, rows []PolicyRow, beforeRow func(PolicyRow)) int {
	fmt.Fprintf(w, "%-10s %12s %12s %10s %10s %10s %12s\n", "policy", "cycles", "instrs", "avg warps", "acq ok%", "IPC/SM", "stalls s/m/a")
	failed := 0
	var baseCycles int64
	for _, r := range rows {
		if r.Err != nil {
			// A wedged or invariant-breaking policy fails its own row;
			// the other policies still report.
			failed++
			fmt.Fprintf(w, "%-10s %12s  %v\n", r.Policy, "ERR("+ErrKind(r.Err)+")", r.Err)
			continue
		}
		if beforeRow != nil {
			beforeRow(r)
		}
		st := r.Stats
		ipc := float64(st.Instructions) / float64(st.Cycles) / float64(machine.NumSMs)
		delta := ""
		if r.Policy == "static" {
			baseCycles = st.Cycles
		} else if baseCycles > 0 {
			delta = fmt.Sprintf("  (%+.1f%% vs static)", 100*(float64(st.Cycles)/float64(baseCycles)-1))
		}
		stalls := fmt.Sprintf("%dk/%dk/%dk",
			st.ScoreboardStalls/1000, st.MemStalls/1000, st.AcquireStalls/1000)
		fmt.Fprintf(w, "%-10s %12d %12d %10.1f %9.1f%% %10.2f %12s%s\n",
			r.Policy, st.Cycles, st.Instructions, st.AvgOccupancyWarps,
			100*st.AcquireSuccessRate(), ipc, stalls, delta)
	}
	return failed
}
