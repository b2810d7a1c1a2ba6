// Package liveness implements the static register liveness analysis of
// paper section III-A1: a backward dataflow over the kernel CFG, widened
// conservatively across divergent regions. A register defined before a
// branch and used inside any arm is treated as live throughout every arm;
// a register defined inside an arm and used after the reconvergence point
// is treated as live throughout the other arms too (the R3 and R2 cases of
// Figure 3). The result drives extended-set sizing, acquire/release
// placement, index compaction, and the dead-value metadata consumed by the
// RFV baseline.
package liveness

import (
	"fmt"
	"io"

	"regmutex/internal/cfg"
	"regmutex/internal/isa"
)

// Info is the result of Analyze.
type Info struct {
	Kernel *isa.Kernel
	Graph  *cfg.Graph

	// LiveIn and LiveOut are per-instruction live sets after divergence
	// widening. LiveIn[i] is the set live immediately before instruction
	// i executes.
	LiveIn  []isa.RegSet
	LiveOut []isa.RegSet

	// MaxLive is the maximum of LiveAt over all instructions: the
	// paper's "maximum number of live registers at any given point".
	MaxLive int

	// MaxLiveAtBarrier is the maximum live count at any bar.sync
	// instruction; the deadlock-avoidance rule requires |Bs| to be at
	// least this (section III-A2).
	MaxLiveAtBarrier int

	// uses and defs are each instruction's Uses and Defs, computed once
	// per analysis.
	uses, defs []isa.RegSet
}

// Compute builds k's CFG and computes its widened liveness over it: the
// one analysis of a kernel version that the compiler passes read.
func Compute(k *isa.Kernel) (*Info, error) {
	g, err := cfg.Build(k)
	if err != nil {
		return nil, err
	}
	return Analyze(k, g), nil
}

// Analyze computes widened liveness for k over its CFG g.
func Analyze(k *isa.Kernel, g *cfg.Graph) *Info {
	n := len(k.Instrs)
	sets := make([]isa.RegSet, 4*n)
	inf := &Info{
		Kernel:  k,
		Graph:   g,
		LiveIn:  sets[:n:n],
		LiveOut: sets[n : 2*n : 2*n],
		uses:    sets[2*n : 3*n : 3*n],
		defs:    sets[3*n:],
	}
	for i := range k.Instrs {
		inf.uses[i], inf.defs[i] = k.Instrs[i].Uses(), k.Instrs[i].Defs()
	}
	base := inf.dataflow()
	overlay := make([]isa.RegSet, n)
	// Widen divergent regions to a fixpoint. Each round recomputes the
	// effective live sets (dataflow ∪ overlay) and grows the overlay;
	// the overlay only ever grows, so this terminates.
	liveIn, liveOut := inf.LiveIn, inf.LiveOut
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			liveIn[i] = base.in[i] | overlay[i]
			liveOut[i] = base.out[i] | overlay[i]
		}
		for i := 0; i < n; i++ {
			br := &k.Instrs[i]
			if br.Op != isa.OpBra || br.Guard.Unguarded() {
				continue // only guarded branches diverge
			}
			bb := g.BlockOf(i)
			region := g.RegionBlocks(bb)
			if len(region) == 0 {
				continue
			}
			// Registers defined anywhere inside the region.
			var regionDefs isa.RegSet
			for _, rb := range region {
				blk := g.Blocks[rb]
				for t := blk.Start; t < blk.End; t++ {
					regionDefs |= inf.defs[t]
				}
			}
			// Rule 1: live across the branch -> live throughout all arms.
			widen := liveOut[i]
			// Rule 2: defined in an arm and live at reconvergence ->
			// live throughout all arms.
			if rpc := g.ReconvPC(i); rpc >= 0 {
				widen |= liveIn[rpc] & regionDefs
			}
			if widen == 0 {
				continue
			}
			for _, rb := range region {
				blk := g.Blocks[rb]
				for t := blk.Start; t < blk.End; t++ {
					if overlay[t]|widen != overlay[t] {
						overlay[t] |= widen
						changed = true
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if c := inf.LiveIn[i].Count(); c > inf.MaxLive {
			inf.MaxLive = c
		}
		if k.Instrs[i].Op == isa.OpBarSync {
			if c := inf.LiveIn[i].Count(); c > inf.MaxLiveAtBarrier {
				inf.MaxLiveAtBarrier = c
			}
		}
	}
	return inf
}

type flowSets struct {
	in, out []isa.RegSet
}

// dataflow runs the classic backward may-liveness iteration at instruction
// granularity over the graph's instruction successors.
func (inf *Info) dataflow() flowSets {
	k, g := inf.Kernel, inf.Graph
	n := len(k.Instrs)
	in := make([]isa.RegSet, n)
	out := make([]isa.RegSet, n)
	kill := make([]isa.RegSet, n)
	for i := range kill {
		// A guarded definition is conditional: it cannot kill the
		// incoming value, because inactive lanes keep it. SELP is the
		// exception — its "guard" is a selector and every lane writes
		// the destination.
		if instr := &k.Instrs[i]; instr.Guard.Unguarded() || instr.Op == isa.OpSelp {
			kill[i] = inf.defs[i]
		}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			var o isa.RegSet
			for _, s := range g.InstrSuccs(i) {
				o |= in[s]
			}
			ni := inf.uses[i] | (o &^ kill[i])
			if ni != in[i] || o != out[i] {
				in[i], out[i] = ni, o
				changed = true
			}
		}
	}
	return flowSets{in: in, out: out}
}

// LiveAt returns the live set at instruction i, counting registers the
// instruction itself touches (a register being written is "in use" at
// that point for allocation purposes).
func (inf *Info) LiveAt(i int) isa.RegSet {
	return inf.LiveIn[i] | inf.uses[i] | inf.defs[i]
}

// WriteListing writes the first n instructions of the analysed kernel,
// one row each with its index and its LiveAt set, the presentation of
// Figure 3: "  5: iadd r3, r1, r2                    live( 3): r1-r3".
func (inf *Info) WriteListing(w io.Writer, n int) error {
	for i := 0; i < n; i++ {
		live := inf.LiveAt(i)
		if _, err := fmt.Fprintf(w, "%3d: %-34s live(%2d): %s\n",
			i, &inf.Kernel.Instrs[i], live.Count(), live.Ranges()); err != nil {
			return err
		}
	}
	return nil
}

// CountAt returns the number of live registers at instruction i.
func (inf *Info) CountAt(i int) int { return inf.LiveAt(i).Count() }

// UndefinedAtEntry returns registers that may be read before any
// definition (LiveIn of the entry). Well-formed kernels keep this empty;
// tests assert it.
func (inf *Info) UndefinedAtEntry() isa.RegSet {
	if len(inf.LiveIn) == 0 {
		return 0
	}
	return inf.LiveIn[0]
}

// AnnotateDeadAfter fills Instr.DeadAfter on k's instructions: the
// registers whose conservative live range ends right after each
// instruction. This is the compiler-embedded dead-value information the
// register-file-virtualization baseline (Jeon et al. [3]) consumes to
// release physical registers early. Values that die on a CFG edge rather
// than at an instruction (a loop counter on the loop-exit edge, say) are
// not annotated anywhere; their physical rows are reclaimed at warp exit,
// which is conservative. k is the analysed kernel or an unedited copy.
func (inf *Info) AnnotateDeadAfter(k *isa.Kernel) {
	for i := range k.Instrs {
		dead := inf.LiveAt(i).Diff(inf.LiveOut[i])
		if dead.Empty() {
			k.Instrs[i].DeadAfter = nil
			continue
		}
		k.Instrs[i].DeadAfter = dead.Regs()
	}
}

// Profile returns, for every instruction, the fraction of the kernel's
// allocated registers that are live there: the quantity plotted per
// executed instruction in Figure 1 of the paper.
func (inf *Info) Profile() []float64 {
	alloc := inf.Kernel.AllocRegs()
	out := make([]float64, len(inf.LiveIn))
	for i := range out {
		out[i] = float64(inf.CountAt(i)) / float64(alloc)
	}
	return out
}
