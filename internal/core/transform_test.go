package core

import (
	"testing"

	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
)

func TestCandidatesPaperExample(t *testing.T) {
	got := Candidates(24)
	want := []int{2, 4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("Candidates(24) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Candidates(24) = %v, want %v", got, want)
		}
	}
}

func TestCandidatesProperties(t *testing.T) {
	for regs := 8; regs <= 64; regs += 4 {
		for _, es := range Candidates(regs) {
			if es%2 != 0 || es <= 0 || es >= regs {
				t.Errorf("Candidates(%d) contains invalid %d", regs, es)
			}
		}
	}
}

// peakKernel builds a kernel with numRegs registers whose live count peaks
// above base only inside an inner section, like the paper's Figure 2.
// Layout: threads compute on a few low registers, then a "peak" section
// defines and consumes all high registers, then a cool-down uses low
// registers again.
// mustAnalyze returns k's graph and liveness, the analysis the passes
// take.
func mustAnalyze(t testing.TB, k *isa.Kernel) *liveness.Info {
	t.Helper()
	inf, err := liveness.Compute(k)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

func peakKernel(t testing.TB, name string, numRegs, threads int) *isa.Kernel {
	b := isa.NewBuilder(name, numRegs, 2, threads)
	b.MovSpecial(0, isa.SpecTID)
	b.MovSpecial(1, isa.SpecCTAID)
	b.IMad(2, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
	b.LdGlobal(3, isa.R(2), 0)
	// Peak: define r4..r(numRegs-1), then fold them down.
	for r := 4; r < numRegs; r++ {
		b.IAdd(isa.Reg(r), isa.R(isa.Reg(r-1)), isa.Imm(int64(r)))
	}
	for r := numRegs - 1; r > 4; r-- {
		b.IAdd(isa.Reg(r-1), isa.R(isa.Reg(r)), isa.R(isa.Reg(r-1)))
	}
	// Cool-down: only low registers live.
	b.IAdd(3, isa.R(4), isa.Imm(1))
	b.IMul(3, isa.R(3), isa.Imm(3))
	b.StGlobal(isa.R(2), 0, isa.R(3))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 4
	k.GlobalMemWords = 1 << 14
	return k
}

func TestTransformInjectsPrimitives(t *testing.T) {
	k := peakKernel(t, "peak", 24, 512)
	res, err := Transform(k, Options{Config: occupancy.GTX480()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disabled() {
		t.Fatalf("expected an extended set; reason: %s", res.Split.Reason)
	}
	if res.Acquires == 0 || res.Releases == 0 {
		t.Errorf("acquires/releases = %d/%d, want both > 0", res.Acquires, res.Releases)
	}
	if res.Kernel.BaseSet != res.Split.Bs || res.Kernel.ExtSet != res.Split.Es {
		t.Error("kernel annotations do not match the split")
	}
	if res.Split.Bs+res.Split.Es != k.AllocRegs() {
		t.Errorf("Bs+Es = %d, want AllocRegs %d", res.Split.Bs+res.Split.Es, k.AllocRegs())
	}
	if err := res.Kernel.Validate(); err != nil {
		t.Errorf("transformed kernel invalid: %v", err)
	}
	if err := CheckHolding(mustAnalyze(t, res.Kernel).Graph, res.Split.Bs); err != nil {
		t.Errorf("holding invariant: %v", err)
	}
	// Occupancy must not decrease.
	if res.RegMutexOcc.WarpsPerSM < res.BaselineOcc.WarpsPerSM {
		t.Errorf("occupancy dropped: %d -> %d", res.BaselineOcc.WarpsPerSM, res.RegMutexOcc.WarpsPerSM)
	}
}

func TestTransformDisabledWhenNotRegisterLimited(t *testing.T) {
	k := peakKernel(t, "small", 8, 64)
	res, err := Transform(k, Options{Config: occupancy.GTX480()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Disabled() {
		t.Errorf("8-register kernel should not get an extended set (split %+v)", res.Split)
	}
	// Disabled kernels carry no RegMutex primitives.
	for i := range res.Kernel.Instrs {
		op := res.Kernel.Instrs[i].Op
		if op == isa.OpAcq || op == isa.OpRel {
			t.Fatal("disabled transform injected primitives")
		}
	}
}

func TestTransformForceEs(t *testing.T) {
	k := peakKernel(t, "forced", 24, 512)
	for _, es := range []int{2, 4, 6, 8, 10, 12} {
		res, err := Transform(k, Options{Config: occupancy.GTX480(), ForceEs: es})
		if err != nil {
			t.Fatalf("ForceEs=%d: %v", es, err)
		}
		if res.Split.Es != es || res.Split.Bs != k.AllocRegs()-es {
			t.Errorf("ForceEs=%d: split %+v", es, res.Split)
		}
		if err := CheckHolding(mustAnalyze(t, res.Kernel).Graph, res.Split.Bs); err != nil {
			t.Errorf("ForceEs=%d: %v", es, err)
		}
	}
}

func TestHeuristicPicksPaperSplit(t *testing.T) {
	// The worked example: a 24-register kernel, 512-thread CTAs, on the
	// GTX480. The heuristic should land on Es=6 / Bs=18 with 26
	// sections (section III-A2).
	k := peakKernel(t, "worked", 24, 512)
	inf := mustAnalyze(t, k)
	split := SelectSplit(occupancy.GTX480(), k, inf, nil)
	if split.Disabled {
		t.Fatalf("disabled: %s", split.Reason)
	}
	if split.Es != 6 || split.Bs != 18 {
		t.Errorf("split = Es=%d/Bs=%d, want Es=6/Bs=18", split.Es, split.Bs)
	}
	if split.Sections != 26 {
		t.Errorf("sections = %d, want 26", split.Sections)
	}
	if split.Warps != 48 {
		t.Errorf("warps = %d, want 48 (full occupancy)", split.Warps)
	}
}

func TestHeuristicRespectsBarrierRule(t *testing.T) {
	// A kernel that keeps many registers live across a barrier: |Bs|
	// must cover them, shrinking the viable |Es| range.
	b := isa.NewBuilder("barheavy", 24, 2, 256)
	b.MovSpecial(0, isa.SpecTID)
	for r := 1; r < 22; r++ {
		b.IAdd(isa.Reg(r), isa.R(isa.Reg(r-1)), isa.Imm(1))
	}
	b.Bar() // 21 registers live here (r1..r21 + r0... conservatively >= 20)
	acc := isa.Reg(22)
	b.Mov(acc, isa.Imm(0))
	for r := 0; r < 22; r++ {
		b.IAdd(acc, isa.R(acc), isa.R(isa.Reg(r)))
	}
	b.StGlobal(isa.R(0), 0, isa.R(acc))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 4
	k.GlobalMemWords = 1 << 12

	inf := mustAnalyze(t, k)
	split := SelectSplit(occupancy.GTX480(), k, inf, nil)
	if !split.Disabled && split.Bs < inf.MaxLiveAtBarrier {
		t.Errorf("Bs=%d below live-at-barrier %d", split.Bs, inf.MaxLiveAtBarrier)
	}
}
