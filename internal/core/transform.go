package core

import (
	"fmt"

	"regmutex/internal/cfg"
	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
)

// Options configures the RegMutex compiler pass.
type Options struct {
	// Config is the target machine; occupancy on it drives |Es|
	// selection.
	Config occupancy.Config
	// ForceEs, when non-zero, bypasses the heuristic and uses exactly
	// this extended-set size (the Figure 10/11 sensitivity sweeps).
	ForceEs int
	// NoCompaction skips the register index compaction pass (the
	// section III-A4 ablation): acquire regions then extend across any
	// value left in the extended set, and kernels whose values straddle
	// barriers become infeasible.
	NoCompaction bool
}

// Result is the outcome of the RegMutex pass on one kernel.
type Result struct {
	// Kernel is the transformed clone: reconvergence and dead-value
	// annotations filled, compaction MOVs and ACQ/REL primitives
	// injected, BaseSet/ExtSet recorded for launch.
	Kernel *isa.Kernel

	Split    Split
	Acquires int // static ACQ instructions injected
	Releases int // static REL instructions injected
	Moves    int // compaction MOVs injected

	BaselineOcc occupancy.Result // occupancy at the full register demand
	RegMutexOcc occupancy.Result // occupancy at |Bs|
}

// Disabled reports whether the pass left the kernel untransformed
// (zero-sized extended set).
func (r *Result) Disabled() bool { return r.Split.Disabled || r.Split.Es == 0 }

// Prepare clones k and fills the annotations every execution mode needs:
// branch reconvergence points (IPDOMs) and conservative dead-value
// metadata. Baseline, OWF, and RFV runs use Prepare'd kernels directly.
func Prepare(k *isa.Kernel) (*isa.Kernel, error) {
	nk, _, err := prepare(k)
	return nk, err
}

// prepare is Prepare that also returns its analysis of the prepared
// kernel. The annotations it fills change neither the graph nor the
// liveness, so the analysis holds for the result and for any unedited
// clone of it.
func prepare(k *isa.Kernel) (*isa.Kernel, *liveness.Info, error) {
	nk := k.Clone()
	inf, err := liveness.Compute(nk)
	if err != nil {
		return nil, nil, err
	}
	cfg.AnnotateReconvergence(nk, inf.Graph)
	inf.AnnotateDeadAfter(nk)
	if u := inf.UndefinedAtEntry(); !u.Empty() {
		return nil, nil, fmt.Errorf("core: kernel %s reads %s before definition", k.Name, u)
	}
	nk.BaseSet = nk.AllocRegs()
	nk.ExtSet = 0
	return nk, inf, nil
}

// Transform runs the full RegMutex compiler pipeline of section III-A on
// kernel k: liveness analysis, extended-set size selection, register
// index compaction, and acquire/release injection. k itself is not
// modified.
func Transform(k *isa.Kernel, opt Options) (*Result, error) {
	pre, inf, err := prepare(k)
	if err != nil {
		return nil, err
	}

	res := &Result{
		BaselineOcc: occupancy.Baseline(opt.Config, k),
	}

	attempt := func(bs, es int) (*isa.Kernel, int, int, int, error) {
		// pre's analysis describes the clone until the first edit.
		nk, an := pre.Clone(), inf
		moves := 0
		if !opt.NoCompaction {
			var err error
			if moves, an, err = Compact(nk, an, bs); err != nil {
				return nil, 0, 0, 0, err
			}
		}
		acq, rel, err := Inject(nk, an, bs)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		// One analysis of the injected kernel serves the holding check
		// and both annotations.
		post, err := liveness.Compute(nk)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if err := CheckHolding(post.Graph, bs); err != nil {
			return nil, 0, 0, 0, err
		}
		cfg.AnnotateReconvergence(nk, post.Graph)
		post.AnnotateDeadAfter(nk)
		nk.BaseSet, nk.ExtSet = bs, es
		if err := nk.Validate(); err != nil {
			return nil, 0, 0, 0, err
		}
		return nk, acq, rel, moves, nil
	}

	if opt.ForceEs > 0 {
		regs := pre.AllocRegs()
		bs := regs - opt.ForceEs
		if bs < 1 {
			return nil, fmt.Errorf("core: forced Es=%d leaves no base set for %d registers", opt.ForceEs, regs)
		}
		occ := occupancy.WithBaseSet(opt.Config, pre, bs)
		sections, _ := occupancy.SRPSections(opt.Config, occ.WarpsPerSM, bs, opt.ForceEs)
		if sections < 1 {
			return nil, fmt.Errorf("core: forced Es=%d leaves no SRP section", opt.ForceEs)
		}
		nk, acq, rel, moves, err := attempt(bs, opt.ForceEs)
		if err != nil {
			return nil, err
		}
		res.Kernel = nk
		res.Split = Split{Bs: bs, Es: opt.ForceEs, Sections: sections, Warps: occ.WarpsPerSM}
		res.Acquires, res.Releases, res.Moves = acq, rel, moves
		res.RegMutexOcc = occ
		return res, nil
	}

	// Heuristic path: candidates are vetoed when compaction or
	// injection cannot honour them (e.g. values pinned across
	// barriers).
	tried := map[int]*isa.Kernel{}
	counts := map[int][3]int{}
	feasible := func(bs, es int) bool {
		nk, acq, rel, moves, err := attempt(bs, es)
		if err != nil {
			return false
		}
		tried[es] = nk
		counts[es] = [3]int{acq, rel, moves}
		return true
	}
	split := SelectSplit(opt.Config, pre, inf, feasible)
	res.Split = split
	if split.Disabled {
		res.Kernel = pre
		res.RegMutexOcc = res.BaselineOcc
		return res, nil
	}
	nk := tried[split.Es]
	if nk == nil { // should not happen: SelectSplit only returns vetted candidates
		return nil, fmt.Errorf("core: kernel %s: selected Es=%d was never vetted", k.Name, split.Es)
	}
	c := counts[split.Es]
	res.Kernel = nk
	res.Acquires, res.Releases, res.Moves = c[0], c[1], c[2]
	res.RegMutexOcc = occupancy.WithBaseSet(opt.Config, pre, split.Bs)
	return res, nil
}
