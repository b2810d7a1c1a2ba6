package harness

import (
	"context"
	"fmt"
	"io"

	"regmutex/internal/audit"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// RunSpec is one simulation's identity plus how to run and watch it: a
// kernel on one machine under a register-allocation policy. Every
// simulation paperbench, hypo, gpusim and gpusimd run goes through
// RunCells with a RunSpec, so they share one compile step, one run body
// and one memo key, and a daemon-served report is byte-identical to the
// CLI's for the same request.
type RunSpec struct {
	Machine occupancy.Config
	// Timing overrides the timing model; a zero MaxCycles selects
	// sim.DefaultTiming().
	Timing sim.Timing
	Kernel *isa.Kernel
	// Workload generates the global memory contents from Seed inside
	// the pool task, so a memo hit skips it; nil selects a zero-filled
	// heap sized by the kernel (assembly input).
	Workload *workloads.Workload
	Seed     uint64
	// Policies are the policies RunPolicies compares; a Cell names its
	// policy instead.
	Policies []string
	// ForceEs pins the RegMutex extended-set size for the policies that
	// run the transform; 0 keeps the heuristic's pick.
	ForceEs int
	// Audit attaches the invariant auditor to every run.
	Audit bool
	// Observe, when non-nil, is consulted per policy for extra device
	// options (trace collectors, progress observers) and an after-run
	// hook that sees the finished Stats. Only the submission that
	// actually simulates is observed: a memo hit skips both.
	Observe func(policy string) (opts []sim.Option, after func(sim.Stats))
	// Pool fans runs out and deduplicates identical ones via its keyed
	// memo cache. RunCells requires it; RunPolicies supplies a private
	// all-cores pool when it is nil.
	Pool *runpool.Pool
}

// Run is one simulation's memoized outcome: its Stats plus, for the
// policies that run the RegMutex transform, the split it chose and the
// theoretical occupancy before and after (zero otherwise). It holds no
// kernel, so memo entries stay small.
type Run struct {
	Stats       sim.Stats
	Split       core.Split
	BaselineOcc occupancy.Result
	RegMutexOcc occupancy.Result
}

// key identifies one simulation for the pool's memo cache. It holds
// everything that can change the Run: the policy and forced |Es|, the
// source kernel's fingerprint (code, grid, resource demands; Scale is
// covered because it reshapes the grid), the machine, the seed, the
// input source (workload name, or "-" for the zero heap), the timing
// model and the auditor. Observers and Pool never change the Run
// (observers are guarded by obs.TestObserverDoesNotPerturbTiming), so
// they are left out and observed and unobserved submissions of one
// point share a simulation.
func (s RunSpec) key(policy string) string {
	in := "-"
	if s.Workload != nil {
		in = s.Workload.Name
	}
	return fmt.Sprintf("%s|es=%d|%016x|%+v|seed=%d|in=%s|%+v|audit=%v",
		policy, s.ForceEs, s.Kernel.Fingerprint(), s.Machine, s.Seed, in, s.timing(), s.Audit)
}

func (s RunSpec) timing() sim.Timing {
	if s.Timing.MaxCycles == 0 {
		return sim.DefaultTiming()
	}
	return s.Timing
}

// Cell is one simulation of a study: a RunSpec under one policy.
type Cell struct {
	Spec   RunSpec
	Policy string
}

// CellRun is one cell's outcome: its Run, or the error that failed it.
type CellRun struct {
	Run
	Err error
}

// RunCells is the one run path. It submits every cell to its spec's
// pool, memoized under spec.key(policy), before it waits on any, so the
// pool sees a whole study at once; then it returns each cell's outcome
// in cell order and how many submissions the memo cache (or an
// identical run already in flight) served. ctx joins the pool's
// single-flight interest group: canceling it abandons every run no
// other live submitter shares, and outcomes not yet collected report
// the cancellation. An unknown policy fails its cell with a
// *NotFoundError listing PolicyNames; every error is prefixed with the
// "<kernel>/<policy>" it came from. Every cell's spec must carry a Pool.
func RunCells(ctx context.Context, cells []Cell) ([]CellRun, int) {
	futs := make([]*runpool.Future, len(cells))
	hits := 0
	for i, c := range cells {
		spec, policy := c.Spec, c.Policy
		f, hit := spec.Pool.SubmitKeyedCtx(ctx, spec.key(policy), func(tctx context.Context) (any, error) {
			run, err := spec.run(tctx, policy)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", spec.Kernel.Name, policy, err)
			}
			return run, nil
		})
		futs[i] = f
		if hit {
			hits++
		}
	}
	out := make([]CellRun, len(cells))
	for i, f := range futs {
		v, err := f.WaitCtx(ctx)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Run = v.(Run)
	}
	return out, hits
}

// run compiles the kernel through prepare, generates the input, and
// simulates it with the auditor and observers attached.
func (s RunSpec) run(ctx context.Context, policy string) (Run, error) {
	kern, pol, res, err := prepare(s.Machine, s.Kernel, policy, s.ForceEs)
	if err != nil {
		return Run{}, err
	}
	var global []uint64
	if s.Workload != nil {
		global = s.Workload.Input(s.Kernel, s.Seed)
	}
	opts := []sim.Option{sim.WithPolicy(pol), sim.WithGlobal(global)}
	if s.Audit {
		opts = append(opts, sim.WithAudit(audit.Standard(audit.DefaultEvery)))
	}
	var after func(sim.Stats)
	if s.Observe != nil {
		extra, fin := s.Observe(policy)
		opts = append(opts, extra...)
		after = fin
	}
	d, err := sim.New(sim.DeviceSpec{Config: s.Machine, Timing: s.timing(), Kernel: kern}, opts...)
	if err != nil {
		return Run{}, err
	}
	st, err := d.RunContext(ctx)
	if err != nil {
		return Run{}, err
	}
	if after != nil {
		after(st)
	}
	run := Run{Stats: st}
	if res != nil {
		run.Split, run.BaselineOcc, run.RegMutexOcc = res.Split, res.BaselineOcc, res.RegMutexOcc
	}
	return run, nil
}

// PolicyRow is one policy's outcome in a comparison run.
type PolicyRow struct {
	Policy string
	Stats  sim.Stats
	Err    error
}

// RunPolicies runs the spec's kernel under every requested policy
// through one RunCells call and returns the rows in request order plus
// the memo-hit count (the daemon's dedup metric); a failed policy fails
// only its own row. With no Pool, the policies share one private pool.
func RunPolicies(ctx context.Context, spec RunSpec) ([]PolicyRow, int) {
	if spec.Pool == nil {
		spec.Pool = runpool.New(0)
	}
	cells := make([]Cell, len(spec.Policies))
	for i, name := range spec.Policies {
		cells[i] = Cell{spec, name}
	}
	runs, hits := RunCells(ctx, cells)
	rows := make([]PolicyRow, len(runs))
	for i, r := range runs {
		rows[i] = PolicyRow{Policy: spec.Policies[i], Stats: r.Stats, Err: r.Err}
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
			st.Stall[sim.CauseScoreboard]/1000, st.Stall[sim.CauseMemory]/1000, st.Stall[sim.CauseAcquire]/1000)
		fmt.Fprintf(w, "%-10s %12d %12d %10.1f %9.1f%% %10.2f %12s%s\n",
			r.Policy, st.Cycles, st.Instructions, st.AvgOccupancyWarps,
			100*st.AcquireSuccessRate(), ipc, stalls, delta)
	}
	return failed
}
