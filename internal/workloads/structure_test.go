package workloads

import (
	"testing"

	"regmutex/internal/isa"
	"regmutex/internal/liveness"
)

// opCount tallies opcode classes in a kernel.
func opCount(k *isa.Kernel) map[isa.Class]int {
	m := map[isa.Class]int{}
	for i := range k.Instrs {
		m[isa.ClassOf(k.Instrs[i].Op)]++
	}
	return m
}

func hasOp(k *isa.Kernel, op isa.Opcode) bool {
	for i := range k.Instrs {
		if k.Instrs[i].Op == op {
			return true
		}
	}
	return false
}

// hasDivergentBranch reports whether the kernel has a guarded branch
// other than its loop back edges (i.e. genuine control divergence).
func hasDivergentBranch(k *isa.Kernel) bool {
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op == isa.OpBra && !in.Guard.Unguarded() && in.Target > i {
			return true // forward guarded branch = if/else shape
		}
	}
	return false
}

// TestKernelCharacters checks each synthetic kernel keeps the defining
// character of the application it stands in for — the properties DESIGN.md
// claims the substitution preserves.
func TestKernelCharacters(t *testing.T) {
	cases := []struct {
		name      string
		divergent bool // data-dependent forward branch
		barrier   bool // CTA-wide synchronisation
		sfu       bool // transcendental unit usage
		sharedMem bool
		minMemOps int // global memory instructions (latency pressure)
	}{
		{"bfs", true, false, false, false, 2},
		{"cutcp", false, false, true, false, 2},
		{"dwt2d", false, true, false, true, 2},
		{"hotspot3d", false, false, false, false, 3},
		{"mriq", false, false, true, false, 2},
		{"particlefilter", true, false, true, false, 2},
		{"radixsort", false, true, false, true, 2},
		{"sad", false, false, false, false, 2},
		{"gaussian", false, false, false, false, 2},
		{"heartwall", false, true, false, true, 2},
		{"lavamd", false, false, true, false, 2},
		{"mergesort", false, true, false, true, 2},
		{"montecarlo", false, false, true, false, 2},
		{"spmv", false, false, false, false, 2},
		{"srad", false, false, false, false, 2},
		{"tpacf", false, false, true, true, 2},
	}
	for _, c := range cases {
		w, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(8)
		counts := opCount(k)

		if got := hasDivergentBranch(k); got != c.divergent {
			t.Errorf("%s: divergent branch = %v, want %v", c.name, got, c.divergent)
		}
		if got := hasOp(k, isa.OpBarSync); got != c.barrier {
			t.Errorf("%s: barrier = %v, want %v", c.name, got, c.barrier)
		}
		if got := counts[isa.ClassSFU] > 0; got != c.sfu {
			t.Errorf("%s: SFU usage = %v, want %v", c.name, got, c.sfu)
		}
		if got := k.SharedMemWords > 0; got != c.sharedMem {
			t.Errorf("%s: shared memory = %v, want %v", c.name, got, c.sharedMem)
		}
		globals := 0
		for i := range k.Instrs {
			if k.Instrs[i].Op == isa.OpLdGlobal || k.Instrs[i].Op == isa.OpStGlobal {
				globals++
			}
		}
		if globals < c.minMemOps {
			t.Errorf("%s: only %d global memory ops, want >= %d", c.name, globals, c.minMemOps)
		}
	}
}

// TestBarrierKernelsKeepBaseSetHeadroom verifies the deadlock-avoidance
// precondition for every barrier kernel: the live set at every bar.sync
// fits under the paper's |Bs| for that kernel.
func TestBarrierKernelsKeepBaseSetHeadroom(t *testing.T) {
	for _, w := range All() {
		k := w.Build(8)
		if !hasOp(k, isa.OpBarSync) {
			continue
		}
		inf, err := liveness.Compute(k)
		if err != nil {
			t.Fatal(err)
		}
		if inf.MaxLiveAtBarrier > w.PaperBs {
			t.Errorf("%s: %d live at barrier exceeds paper Bs %d — the paper's split would deadlock",
				w.Name, inf.MaxLiveAtBarrier, w.PaperBs)
		}
	}
}

// TestScaleControlsGrid ensures Build(scale) shrinks only the grid.
func TestScaleControlsGrid(t *testing.T) {
	for _, w := range All() {
		k1 := w.Build(1)
		k8 := w.Build(8)
		if k8.GridCTAs >= k1.GridCTAs && k1.GridCTAs > 1 {
			t.Errorf("%s: scale did not shrink the grid (%d -> %d)", w.Name, k1.GridCTAs, k8.GridCTAs)
		}
		if k1.NumRegs != k8.NumRegs || k1.ThreadsPerCTA != k8.ThreadsPerCTA {
			t.Errorf("%s: scale changed the kernel shape", w.Name)
		}
		if len(k1.Instrs) != len(k8.Instrs) {
			t.Errorf("%s: scale changed the code", w.Name)
		}
	}
	// Degenerate scales clamp.
	w := registry[0]
	if k := w.Build(0); k.GridCTAs < 1 {
		t.Error("scale 0 must clamp")
	}
	if k := w.Build(1 << 20); k.GridCTAs != 1 {
		t.Error("huge scale must clamp the grid to 1")
	}
}

// TestStoreRegionsDisjointFromLoads: no load can ever touch the region
// where per-thread results land, so results are schedule-independent.
func TestStoreRegionsDisjointFromLoads(t *testing.T) {
	for _, w := range All() {
		k := w.Build(8)
		for i := range k.Instrs {
			in := &k.Instrs[i]
			switch in.Op {
			case isa.OpLdGlobal:
				// Loads address (masked value in [0, memMask]) + Off;
				// the offset must keep them below storeBase.
				if in.Off >= storeBase {
					t.Errorf("%s: load at %d reaches the store region", w.Name, i)
				}
			case isa.OpStGlobal:
				if in.Off < storeBase {
					t.Errorf("%s: store at %d writes into the load region", w.Name, i)
				}
			}
		}
	}
}

func TestPrngDeterminismAndSpread(t *testing.T) {
	a, b := newPrng(9), newPrng(9)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		va, vb := a.next(), b.next()
		if va != vb {
			t.Fatal("prng not deterministic")
		}
		seen[va] = true
	}
	if len(seen) < 990 {
		t.Errorf("prng output repeats suspiciously: %d unique of 1000", len(seen))
	}
	if f := newPrng(3).f01(); f < 0 || f >= 1 {
		t.Errorf("f01 out of range: %f", f)
	}
	if newPrng(0).next() == 0 {
		t.Error("zero seed must still produce output")
	}
}
