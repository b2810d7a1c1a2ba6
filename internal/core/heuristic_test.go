package core

import (
	"testing"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// Table-driven candidate generation across the register range Table I
// spans.
func TestCandidatesTable(t *testing.T) {
	cases := map[int][]int{
		12: {2, 4},
		16: {2, 4, 6},
		20: {2, 4, 6, 8},
		24: {2, 4, 6, 8},
		28: {2, 4, 6, 8, 10},
		32: {4, 6, 8, 10, 12},
		36: {4, 6, 8, 10, 12},
		40: {4, 6, 8, 10, 12, 14},
		44: {4, 6, 8, 12, 14, 16},
	}
	for regs, want := range cases {
		got := Candidates(regs)
		if len(got) != len(want) {
			t.Errorf("Candidates(%d) = %v, want %v", regs, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Candidates(%d) = %v, want %v", regs, got, want)
				break
			}
		}
	}
}

// occKernel is a minimal kernel whose only interesting property is its
// resource shape; the peak ramps through every register so all splits are
// compaction-feasible.
func occKernel(regs, threads, smem int) *isa.Kernel {
	b := isa.NewBuilder("occ", regs, 1, threads)
	b.MovSpecial(0, isa.SpecTID)
	b.Mov(1, isa.Imm(0))
	for r := 2; r < regs; r++ {
		b.IAdd(isa.Reg(r), isa.R(isa.Reg(r-1)), isa.Imm(1))
	}
	for r := regs - 1; r >= 2; r-- {
		b.IAdd(1, isa.R(1), isa.R(isa.Reg(r)))
	}
	b.StGlobal(isa.R(0), 0, isa.R(1))
	b.Exit()
	k := b.MustKernel()
	k.SharedMemWords = smem
	k.GridCTAs = 2
	return k
}

func selectFor(t *testing.T, c occupancy.Config, k *isa.Kernel) Split {
	t.Helper()
	return SelectSplit(c, k, mustAnalyze(t, k), nil)
}

func TestSelectSplitScenarios(t *testing.T) {
	gtx := occupancy.GTX480()

	// The worked example (24 regs, 512 threads): Es=6 via the
	// more-than-half-the-warps rule.
	s := selectFor(t, gtx, occKernel(24, 512, 0))
	if s.Bs != 18 || s.Es != 6 {
		t.Errorf("worked example: split %d+%d, want 18+6", s.Bs, s.Es)
	}

	// Not register-limited: tiny demand, threads bind first.
	s = selectFor(t, gtx, occKernel(8, 256, 0))
	if !s.Disabled {
		t.Errorf("8-register kernel must be disabled, got %+v", s)
	}

	// Shared memory binds everything: occupancy cannot improve, but the
	// kernel IS register-limited relative to the unconstrained machine
	// only if regs bind below the smem cap — with smem cap 1 CTA they
	// never do.
	s = selectFor(t, gtx, occKernel(24, 512, 6000))
	if !s.Disabled {
		t.Errorf("smem-bound kernel must be disabled, got %+v", s)
	}

	// Deadlock rule B: every viable candidate must leave >= 1 section.
	for _, regs := range []int{16, 24, 32, 40} {
		k := occKernel(regs, 256, 0)
		s := selectFor(t, gtx, k)
		if s.Disabled {
			continue
		}
		if s.Sections < 1 {
			t.Errorf("regs=%d: %d sections violates deadlock rule B", regs, s.Sections)
		}
		if s.Bs+s.Es != k.AllocRegs() {
			t.Errorf("regs=%d: split %d+%d does not cover the allocation", regs, s.Bs, s.Es)
		}
	}
}

func TestSelectSplitFeasibilityVeto(t *testing.T) {
	k := occKernel(24, 512, 0)
	inf := mustAnalyze(t, k)
	// Veto everything: the heuristic must disable rather than pick an
	// unvetted candidate.
	s := SelectSplit(occupancy.GTX480(), k, inf, func(bs, es int) bool { return false })
	if !s.Disabled {
		t.Errorf("all-vetoed selection must disable, got %+v", s)
	}
	// Veto only the preferred candidate: the heuristic falls through to
	// another viable one.
	s = SelectSplit(occupancy.GTX480(), k, inf, func(bs, es int) bool { return es != 6 })
	if s.Disabled || s.Es == 6 {
		t.Errorf("vetoed Es=6 still picked: %+v", s)
	}
}

func TestSelectSplitHalfRF(t *testing.T) {
	// On the halved file the same kernel picks a split with fewer rows
	// to spare; the result must still satisfy both deadlock rules.
	half := occupancy.GTX480Half()
	s := selectFor(t, half, occKernel(24, 512, 0))
	if s.Disabled {
		t.Fatal("24-register kernel must be register-limited on the half RF")
	}
	if s.Sections < 1 || s.Bs <= 0 {
		t.Errorf("invalid half-RF split: %+v", s)
	}
}

func TestSelectSplitBarrierRule(t *testing.T) {
	// Keep 20 registers live across a barrier: |Bs| must cover them.
	b := isa.NewBuilder("barrule", 24, 1, 256)
	b.MovSpecial(0, isa.SpecTID)
	for r := 1; r <= 20; r++ {
		b.IAdd(isa.Reg(r), isa.R(0), isa.Imm(int64(r)))
	}
	b.StShared(isa.R(0), 0, isa.R(1))
	b.Bar()
	b.Mov(21, isa.Imm(0))
	for r := 1; r <= 20; r++ {
		b.IAdd(21, isa.R(21), isa.R(isa.Reg(r)))
	}
	b.IAdd(22, isa.R(21), isa.Imm(1))
	b.IAdd(23, isa.R(22), isa.Imm(1))
	b.StGlobal(isa.R(0), 0, isa.R(23))
	b.Exit()
	k := b.MustKernel()
	k.SharedMemWords = 256
	k.GridCTAs = 2

	inf := mustAnalyze(t, k)
	if inf.MaxLiveAtBarrier < 21 {
		t.Fatalf("test setup: only %d live at barrier", inf.MaxLiveAtBarrier)
	}
	s := SelectSplit(occupancy.GTX480(), k, inf, nil)
	if !s.Disabled && s.Bs < inf.MaxLiveAtBarrier {
		t.Errorf("Bs=%d below live-at-barrier=%d (deadlock rule A)", s.Bs, inf.MaxLiveAtBarrier)
	}
}
