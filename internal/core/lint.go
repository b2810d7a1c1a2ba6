package core

import (
	"fmt"

	"regmutex/internal/isa"
	"regmutex/internal/liveness"
)

// LintIssue is one advisory finding about a kernel.
type LintIssue struct {
	Instr   int // instruction index, or -1 for kernel-level issues
	Message string
}

func (l LintIssue) String() string {
	if l.Instr < 0 {
		return l.Message
	}
	return fmt.Sprintf("instr %d: %s", l.Instr, l.Message)
}

// Lint runs advisory checks on a kernel: conditions that Validate cannot
// reject structurally but that make kernels hazardous on real hardware
// and on this simulator. regmutexc surfaces the findings.
//
//   - reads of registers that may be undefined on some path;
//   - bar.sync inside a forward divergent region (CUDA undefined
//     behaviour: lanes of one warp may wait for lanes that never arrive);
//   - unreachable instructions;
//   - registers allocated but never touched (wasted occupancy).
func Lint(k *isa.Kernel) ([]LintIssue, error) {
	inf, err := liveness.Compute(k)
	if err != nil {
		return nil, err
	}
	g := inf.Graph
	var issues []LintIssue

	if u := inf.UndefinedAtEntry(); !u.Empty() {
		issues = append(issues, LintIssue{Instr: -1,
			Message: fmt.Sprintf("registers %s may be read before definition", u)})
	}

	// Barriers inside forward divergent regions. Loop back edges also
	// diverge, but a barrier in a loop body is the normal iteration
	// pattern; only forward-branch (if/else) regions are flagged.
	inForward := make([]bool, len(k.Instrs))
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op != isa.OpBra || in.Guard.Unguarded() || in.Target <= i {
			continue
		}
		for _, rb := range g.RegionBlocks(g.BlockOf(i)) {
			blk := g.Blocks[rb]
			for t := blk.Start; t < blk.End; t++ {
				inForward[t] = true
			}
		}
	}
	for i := range k.Instrs {
		if k.Instrs[i].Op == isa.OpBarSync && inForward[i] {
			issues = append(issues, LintIssue{Instr: i,
				Message: "bar.sync inside a divergent if/else region (lanes may deadlock on real hardware)"})
		}
	}

	// Unreachable instructions.
	reachable := make([]bool, len(k.Instrs))
	stack := []int{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachable[i] {
			continue
		}
		reachable[i] = true
		stack = append(stack, g.InstrSuccs(i)...)
	}
	for i := range k.Instrs {
		if !reachable[i] {
			issues = append(issues, LintIssue{Instr: i, Message: "unreachable instruction"})
		}
	}

	// Allocated-but-untouched registers cost occupancy for nothing.
	var touched isa.RegSet
	for i := range k.Instrs {
		touched |= k.Instrs[i].Touches()
	}
	for r := 0; r < k.NumRegs; r++ {
		if !touched.Has(isa.Reg(r)) {
			issues = append(issues, LintIssue{Instr: -1,
				Message: fmt.Sprintf("register r%d is allocated but never used", r)})
		}
	}
	return issues, nil
}
