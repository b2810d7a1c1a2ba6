package core

import (
	"fmt"

	"regmutex/internal/cfg"
	"regmutex/internal/isa"
	"regmutex/internal/liveness"
)

// Inject places acquire and release primitives around the extended-set
// regions of k (paper section III-A3). An instruction needs the extended
// set when it touches an architected register with index >= bs, or when
// such a register carries a live value across it (the set cannot be
// released while a value resides in it). ACQ is inserted in front of
// every entry into such a region and REL in front of every exit out of
// it. Redundant primitives on joining paths are architectural no-ops, so
// insertion is conservative.
//
// inf is the analysis of k as given (or of an unedited copy of it); the
// insertions make it stale, so the caller re-analyses k and proves the
// result with CheckHolding. Returns the number of ACQ and REL
// instructions inserted.
func Inject(k *isa.Kernel, inf *liveness.Info, bs int) (acq, rel int, err error) {
	n := len(k.Instrs)
	ext := make([]bool, n)
	for i := 0; i < n; i++ {
		in := &k.Instrs[i]
		needs := !in.Touches().AtOrAbove(bs).Empty() ||
			!inf.LiveAt(i).AtOrAbove(bs).Empty()
		ext[i] = needs
		if needs && in.Op == isa.OpBarSync {
			return 0, 0, fmt.Errorf("core: kernel %s: barrier at %d inside extended region (Bs=%d); compaction incomplete",
				k.Name, i, bs)
		}
	}

	// Decide insertion points against the *original* indices, then apply
	// from the back so positions stay valid.
	type insertion struct {
		pos int
		op  isa.Opcode
	}
	var plan []insertion
	for i := 0; i < n; i++ {
		fromExt, fromNon := false, false
		for _, p := range inf.Graph.InstrPreds(i) {
			if ext[p] {
				fromExt = true
			} else {
				fromNon = true
			}
		}
		if i == 0 {
			fromNon = true // kernel entry arrives without the set
		}
		if ext[i] && fromNon {
			plan = append(plan, insertion{pos: i, op: isa.OpAcq})
		}
		if !ext[i] && fromExt {
			plan = append(plan, insertion{pos: i, op: isa.OpRel})
		}
	}
	for j := len(plan) - 1; j >= 0; j-- {
		InsertInstr(k, plan[j].pos, isa.NewInstr(plan[j].op))
		if plan[j].op == isa.OpAcq {
			acq++
		} else {
			rel++
		}
	}
	return acq, rel, nil
}

// CheckHolding verifies the injected kernel's safety invariants with a
// forward dataflow over hold states:
//
//   - every instruction touching a register >= bs is reached only while
//     holding the extended set;
//   - no barrier executes while holding (deadlock freedom, given the
//     heuristic guarantees at least one SRP section);
//   - the warp never exits while holding (the section would leak).
//
// g is the graph of the injected kernel, g.Kernel.
func CheckHolding(g *cfg.Graph, bs int) error {
	k := g.Kernel
	const (
		unknown = 0
		held    = 1
		free    = 2
		both    = 3
	)
	n := len(k.Instrs)
	state := make([]uint8, n) // state on entry to instruction i
	state[0] = free
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			if state[i] == unknown {
				continue
			}
			out := state[i]
			switch k.Instrs[i].Op {
			case isa.OpAcq:
				out = held
			case isa.OpRel:
				out = free
			}
			for _, s := range g.InstrSuccs(i) {
				if state[s]|out != state[s] {
					state[s] |= out
					changed = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		in := &k.Instrs[i]
		if !in.Touches().AtOrAbove(bs).Empty() && state[i] != held {
			return fmt.Errorf("core: kernel %s: instr %d (%s) touches extended register without surely holding (state %d)",
				k.Name, i, in, state[i])
		}
		if in.Op == isa.OpBarSync && state[i]&held != 0 {
			return fmt.Errorf("core: kernel %s: barrier at %d reachable while holding the extended set", k.Name, i)
		}
		if in.Op == isa.OpExit && state[i]&held != 0 {
			return fmt.Errorf("core: kernel %s: exit at %d reachable while holding the extended set", k.Name, i)
		}
	}
	return nil
}
