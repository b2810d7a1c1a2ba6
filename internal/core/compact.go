package core

import (
	"fmt"

	"regmutex/internal/isa"
	"regmutex/internal/liveness"
)

// Compact implements the architected register index compaction of section
// III-A4: wherever a register with index >= bs carries a live value into a
// program region whose live pressure has fallen to <= bs (a would-be
// release region), the value is MOVed into a free base-set register and
// every later use in its live range is renamed, so the extended set can
// actually be released there.
//
// The pass is best-effort for performance but strict for correctness:
// a value it cannot relocate simply keeps the extended set held longer
// (the injection pass holds across any live high register), except at
// CTA barriers, where holding is forbidden by the deadlock-avoidance
// rules — failure to compact a barrier-straddling value is an error.
//
// inf is the analysis of k as given (or of an unedited copy of it).
// Compact re-analyses k after each relocation, the only edit, and returns
// the number of MOV instructions inserted with the analysis of k as it
// leaves.
func Compact(k *isa.Kernel, inf *liveness.Info, bs int) (int, *liveness.Info, error) {
	moves := 0
	var failed isa.RegSet // registers we could not relocate; skip retries
	maxIter := 4 * (len(k.Instrs) + int(isa.MaxRegs))
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return moves, nil, fmt.Errorf("core: kernel %s: compaction did not converge (Bs=%d)", k.Name, bs)
		}
		target, entry := findCompactionTarget(k, inf, bs, failed)
		if target == isa.NoReg {
			break
		}
		if !relocate(k, inf, target, entry, bs) {
			// Could not relocate, and k is unchanged: the injection
			// pass will keep the extended set held across this value
			// instead. Tolerated everywhere except at barriers,
			// checked below.
			failed = failed.Add(target)
			continue
		}
		moves++
		var err error
		if inf, err = liveness.Compute(k); err != nil {
			return moves, nil, err
		}
	}
	// Deadlock rule: no high register may be live at a barrier, and the
	// live count there must fit the base set.
	for i := range k.Instrs {
		if k.Instrs[i].Op != isa.OpBarSync {
			continue
		}
		if hi := inf.LiveAt(i).AtOrAbove(bs); !hi.Empty() {
			return moves, nil, fmt.Errorf("core: kernel %s: extended registers %s live at barrier (instr %d) with Bs=%d",
				k.Name, hi, i, bs)
		}
		if c := inf.CountAt(i); c > bs {
			return moves, nil, fmt.Errorf("core: kernel %s: %d live registers at barrier (instr %d) exceed Bs=%d",
				k.Name, c, i, bs)
		}
	}
	return moves, inf, nil
}

// findCompactionTarget locates a high register that is live at an
// instruction whose live pressure has dropped to the base-set size — the
// paper's release-state condition — and returns it with the entry
// instruction where relocation should happen. Returns NoReg when the
// kernel is fully compacted (modulo registers already marked failed).
func findCompactionTarget(k *isa.Kernel, inf *liveness.Info, bs int, failed isa.RegSet) (isa.Reg, int) {
	for i := range k.Instrs {
		if inf.CountAt(i) > bs {
			continue // still in the peak: the set stays acquired here
		}
		in := &k.Instrs[i]
		// Relocation only pays where the instruction itself touches no
		// extended register: if it does, the acquire region continues
		// through it regardless, and a MOV would be pure overhead (it
		// would also retrigger on the fill phase of a register tile,
		// serialising its loads behind copy instructions).
		if !in.Touches().AtOrAbove(bs).Empty() {
			continue
		}
		hi := inf.LiveIn[i].AtOrAbove(bs).Diff(failed)
		if hi.Empty() {
			continue
		}
		return hi.Min(), i
	}
	return isa.NoReg, 0
}

// relocate moves register r (>= bs) into a free base register starting at
// instruction entry: inserts "mov f, r" before entry and renames all uses
// of r's current value from entry onward. Returns false when the value's
// flow makes single-point relocation unsafe, and then leaves k unchanged.
func relocate(k *isa.Kernel, inf *liveness.Info, r isa.Reg, entry, bs int) bool {
	set, ok := renameSet(k, inf, r, entry)
	if !ok {
		return false
	}
	f, ok := pickFreeBase(k, inf, set, entry, bs)
	if !ok {
		return false
	}
	for i := range set {
		if !set[i] {
			continue
		}
		in := &k.Instrs[i]
		for s := 0; s < isa.NumSrcs(in.Op); s++ {
			if in.Srcs[s].Kind == isa.OpndReg && in.Srcs[s].Reg == r {
				in.Srcs[s].Reg = f
			}
		}
	}
	mov := isa.NewInstr(isa.OpMov)
	mov.Dst = f
	mov.Srcs[0] = isa.R(r)
	InsertInstr(k, entry, mov)
	return true
}

// renameSet computes the set of instructions reached by r's value flowing
// forward from entry, and verifies the relocation is safe: the flow has a
// single entry (every live-carrying predecessor of a member is outside the
// set only when the member is entry itself), and r has no guarded
// redefinition inside (a guarded def merges old and new values, which
// renaming cannot express).
func renameSet(k *isa.Kernel, inf *liveness.Info, r isa.Reg, entry int) ([]bool, bool) {
	n := len(k.Instrs)
	g := inf.Graph
	set := make([]bool, n)
	stack := []int{entry}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if set[i] || !inf.LiveIn[i].Has(r) {
			continue
		}
		set[i] = true
		in := &k.Instrs[i]
		if in.Defs().Has(r) {
			if !in.Guard.Unguarded() {
				return nil, false // guarded redefinition: unsafe
			}
			continue // unguarded redef kills the old value; stop here
		}
		if !inf.LiveOut[i].Has(r) {
			continue // value dies at i
		}
		stack = append(stack, g.InstrSuccs(i)...)
	}
	// Single-entry check: the value may only flow into the set through
	// entry (whose carrying predecessors are the "hot" side that still
	// holds it in r, covered by the inserted MOV).
	for i := 0; i < n; i++ {
		if !set[i] || i == entry {
			continue
		}
		for _, p := range g.InstrPreds(i) {
			if inf.LiveOut[p].Has(r) && !set[p] {
				return nil, false
			}
		}
	}
	// Entry itself must not be re-entered from inside the set: the MOV
	// would re-read r after the set was (possibly) released.
	for _, p := range g.InstrPreds(entry) {
		if inf.LiveOut[p].Has(r) && set[p] {
			return nil, false
		}
	}
	return set, true
}

// pickFreeBase finds a base-set register that is dead and undefined
// throughout the rename set and at the entry point, so it can carry r's
// value without clobbering anything.
func pickFreeBase(k *isa.Kernel, inf *liveness.Info, set []bool, entry, bs int) (isa.Reg, bool) {
	for f := 0; f < bs && f < k.NumRegs; f++ {
		reg := isa.Reg(f)
		ok := !inf.LiveIn[entry].Has(reg)
		for i := range set {
			if !ok {
				break
			}
			if !set[i] {
				continue
			}
			if inf.LiveAt(i).Has(reg) || k.Instrs[i].Defs().Has(reg) {
				ok = false
			}
		}
		if ok {
			return reg, true
		}
	}
	return isa.NoReg, false
}

// InsertInstr inserts in before position pos, remapping branch targets and
// reconvergence indices. Targets pointing exactly at pos keep pointing at
// the inserted instruction, so every path into pos executes it; this is
// what both the compaction MOV and the ACQ/REL injection want, and it is
// safe because redundant RegMutex primitives are architectural no-ops.
func InsertInstr(k *isa.Kernel, pos int, in isa.Instr) {
	for i := range k.Instrs {
		t := &k.Instrs[i]
		if t.Op != isa.OpBra {
			continue
		}
		if t.Target > pos {
			t.Target++
		}
		if t.Reconv > pos {
			t.Reconv++
		}
	}
	if pos < len(k.Instrs) && k.Instrs[pos].Label != "" {
		in.Label, k.Instrs[pos].Label = k.Instrs[pos].Label, ""
	}
	k.Instrs = append(k.Instrs, isa.Instr{})
	copy(k.Instrs[pos+1:], k.Instrs[pos:])
	k.Instrs[pos] = in
}
