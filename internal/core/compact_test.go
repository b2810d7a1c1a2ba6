package core

import (
	"testing"

	"regmutex/internal/isa"
)

// paperScenario reproduces the compaction example of section III-A4: base
// set size 6, live set {r2, r4, r5, r9} right before the release. The
// compiler must move r9 into one of the free base slots {r0, r1, r3}.
func paperScenario(t *testing.T) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("compact-paper", 12, 1, 32)
	// Build a peak: r2, r4, r5, r9 get long-lived values; r6..r8, r10,
	// r11 are peak-only scratch that dies before the cool-down.
	b.Mov(2, isa.Imm(2))
	b.Mov(4, isa.Imm(4))
	b.Mov(5, isa.Imm(5))
	b.Mov(9, isa.Imm(9))
	b.Mov(6, isa.Imm(6))
	b.Mov(7, isa.Imm(7))
	b.Mov(8, isa.Imm(8))
	b.Mov(10, isa.Imm(10))
	b.Mov(11, isa.Imm(11))
	b.IAdd(6, isa.R(6), isa.R(7))
	b.IAdd(6, isa.R(6), isa.R(8))
	b.IAdd(6, isa.R(6), isa.R(10))
	b.IAdd(6, isa.R(6), isa.R(11))
	b.StGlobal(isa.R(6), 0, isa.R(6))
	// Cool-down: live set is now {r2, r4, r5, r9}, count 4 <= Bs=6, but
	// r9 >= 6 blocks release until compaction moves it.
	b.IAdd(2, isa.R(2), isa.R(4))
	b.IAdd(2, isa.R(2), isa.R(5))
	b.IAdd(2, isa.R(2), isa.R(9)) // r9's last use, deep in the cool-down
	b.StGlobal(isa.R(2), 0, isa.R(2))
	b.Exit()
	return b.MustKernel()
}

func TestCompactPaperScenario(t *testing.T) {
	k := paperScenario(t)
	moves, _, err := Compact(k, mustAnalyze(t, k), 6)
	if err != nil {
		t.Fatal(err)
	}
	if moves < 1 {
		t.Errorf("moves = %d, want >= 1 (relocate r9)", moves)
	}
	// Compaction's guarantee: wherever the live count fits the base set
	// AND the instruction touches no extended register (i.e. the acquire
	// region could actually end there), no extended-set register carries
	// a live value through the instruction.
	inf := mustAnalyze(t, k)
	for i := range k.Instrs {
		if inf.CountAt(i) > 6 || !k.Instrs[i].Touches().AtOrAbove(6).Empty() {
			continue
		}
		through := inf.LiveIn[i].AtOrAbove(6)
		if !through.Empty() {
			t.Errorf("instr %d (%s): extended regs %s live through a release-state point",
				i, &k.Instrs[i], through)
		}
	}
	// A MOV from r9 into a free base slot must exist.
	found := false
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op == isa.OpMov && in.Srcs[0].Kind == isa.OpndReg && in.Srcs[0].Reg == 9 && in.Dst < 6 {
			switch in.Dst {
			case 0, 1, 3:
				found = true
			default:
				t.Errorf("MOV destination r%d is not a free slot (free: r0, r1, r3)", in.Dst)
			}
		}
	}
	if !found {
		t.Error("no compaction MOV for r9 found")
	}
}

// Compaction preserves semantics: the renamed kernel computes the same
// values. We check structurally here (every use of r9 after the move is
// renamed); end-to-end functional equivalence is covered by the simulator
// integration tests.
func TestCompactRenamesUses(t *testing.T) {
	k := paperScenario(t)
	if _, _, err := Compact(k, mustAnalyze(t, k), 6); err != nil {
		t.Fatal(err)
	}
	movIdx := -1
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op == isa.OpMov && in.Srcs[0].Kind == isa.OpndReg && in.Srcs[0].Reg == 9 {
			movIdx = i
		}
	}
	if movIdx < 0 {
		t.Fatal("no MOV found")
	}
	for i := movIdx + 1; i < len(k.Instrs); i++ {
		if k.Instrs[i].Uses().Has(9) {
			t.Errorf("instr %d (%s) still reads r9 after relocation", i, &k.Instrs[i])
		}
	}
}

func TestCompactFailsOnBarrierStraddle(t *testing.T) {
	// 8 long-lived values cross a barrier; with Bs=6 two of them cannot
	// be compacted into the base set, so the pass must refuse.
	b := isa.NewBuilder("barfail", 10, 1, 64)
	for r := 0; r < 8; r++ {
		b.Mov(isa.Reg(r), isa.Imm(int64(r)))
	}
	b.Bar()
	acc := isa.Reg(8)
	b.Mov(acc, isa.Imm(0))
	for r := 0; r < 8; r++ {
		b.IAdd(acc, isa.R(acc), isa.R(isa.Reg(r)))
	}
	b.StGlobal(isa.R(0), 0, isa.R(acc))
	b.Exit()
	k := b.MustKernel()
	if _, _, err := Compact(k, mustAnalyze(t, k), 6); err == nil {
		t.Error("expected barrier-straddle error with Bs=6")
	}
	// With Bs=8 everything below the bound: fine.
	k2 := b.MustKernel()
	if _, _, err := Compact(k2, mustAnalyze(t, k2), 8); err != nil {
		t.Errorf("Bs=8 should be feasible: %v", err)
	}
}

func TestCompactConvergesOnPeakKernel(t *testing.T) {
	// The fold-down chain leaves r18 briefly live-through at the peak
	// edge; compaction relocates it (exactly once) and converges.
	k := peakKernel(t, "compact-peak", 24, 256)
	moves, _, err := Compact(k, mustAnalyze(t, k), 18)
	if err != nil {
		t.Fatal(err)
	}
	if moves > 2 {
		t.Errorf("moves = %d, expected at most 2", moves)
	}
	inf := mustAnalyze(t, k)
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if inf.CountAt(i) > 18 || !in.Touches().AtOrAbove(18).Empty() {
			continue
		}
		through := inf.LiveIn[i].AtOrAbove(18)
		if !through.Empty() {
			t.Errorf("instr %d (%s): %s live through release state", i, in, through)
		}
	}
}

func TestInsertInstrRemapsTargets(t *testing.T) {
	b := isa.NewBuilder("remap", 4, 1, 32)
	b.Mov(0, isa.Imm(0))
	b.Label("top")
	b.IAdd(0, isa.R(0), isa.Imm(1)) // 1
	b.Setp(0, isa.CmpLT, isa.R(0), isa.Imm(4))
	b.BraIf(0, "top") // 3 -> target 1
	b.Exit()
	k := b.MustKernel()
	InsertInstr(k, 1, isa.NewInstr(isa.OpNop))
	// Target pointed at 1; insertion at 1 keeps it pointing at the
	// inserted instruction (index 1).
	if k.Instrs[4].Op != isa.OpBra || k.Instrs[4].Target != 1 {
		t.Errorf("branch after insert: %s target %d", &k.Instrs[4], k.Instrs[4].Target)
	}
	if k.Instrs[1].Op != isa.OpNop {
		t.Error("nop not at position 1")
	}
	// Inserting before 0 shifts the target.
	InsertInstr(k, 0, isa.NewInstr(isa.OpNop))
	if k.Instrs[5].Target != 2 {
		t.Errorf("target = %d, want 2 after front insertion", k.Instrs[5].Target)
	}
	if err := k.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInjectPlacesAcqRel(t *testing.T) {
	k := peakKernel(t, "inject", 24, 256)
	acq, rel, err := Inject(k, mustAnalyze(t, k), 18)
	if err != nil {
		t.Fatal(err)
	}
	if acq != 1 || rel != 1 {
		t.Errorf("acq/rel = %d/%d, want 1/1 for a single peak", acq, rel)
	}
	// ACQ must precede the first instruction touching r18+; REL must
	// follow the last.
	firstTouch, lastTouch, acqIdx, relIdx := -1, -1, -1, -1
	for i := range k.Instrs {
		in := &k.Instrs[i]
		switch in.Op {
		case isa.OpAcq:
			acqIdx = i
		case isa.OpRel:
			relIdx = i
		default:
			if !in.Touches().AtOrAbove(18).Empty() {
				if firstTouch < 0 {
					firstTouch = i
				}
				lastTouch = i
			}
		}
	}
	if !(acqIdx < firstTouch && lastTouch < relIdx) {
		t.Errorf("ordering acq=%d first=%d last=%d rel=%d", acqIdx, firstTouch, lastTouch, relIdx)
	}
	if err := CheckHolding(mustAnalyze(t, k).Graph, 18); err != nil {
		t.Error(err)
	}
}

func TestInjectDivergentRegion(t *testing.T) {
	// The peak lives inside one branch arm only: the acquire must cover
	// that arm, and both paths must release before exit.
	b := isa.NewBuilder("divpeak", 24, 2, 256)
	b.MovSpecial(0, isa.SpecTID)
	b.Setp(0, isa.CmpLT, isa.R(0), isa.Imm(16))
	b.BraIf(0, "heavy")
	b.IAdd(1, isa.R(0), isa.Imm(1))
	b.Bra("join")
	b.Label("heavy")
	for r := 2; r < 24; r++ {
		b.IAdd(isa.Reg(r), isa.R(isa.Reg(r-1)), isa.Imm(1))
	}
	b.Mov(1, isa.R(23))
	b.Label("join")
	b.StGlobal(isa.R(0), 0, isa.R(1))
	b.Exit()
	k := b.MustKernel()
	acq, rel, err := Inject(k, mustAnalyze(t, k), 18)
	if err != nil {
		t.Fatal(err)
	}
	if acq < 1 || rel < 1 {
		t.Errorf("acq/rel = %d/%d", acq, rel)
	}
	if err := CheckHolding(mustAnalyze(t, k).Graph, 18); err != nil {
		t.Error(err)
	}
}

func TestCheckHoldingCatchesViolations(t *testing.T) {
	// Touching a high register without an acquire must be rejected.
	b := isa.NewBuilder("noacq", 24, 1, 32)
	b.Mov(20, isa.Imm(1))
	b.StGlobal(isa.R(20), 0, isa.R(20))
	b.Exit()
	k := b.MustKernel()
	if err := CheckHolding(mustAnalyze(t, k).Graph, 18); err == nil {
		t.Error("missing acquire not caught")
	}
	// Exiting while holding must be rejected.
	b2 := isa.NewBuilder("leak", 24, 1, 32)
	b2.Acq()
	b2.Mov(20, isa.Imm(1))
	b2.Exit()
	k2 := b2.MustKernel()
	if err := CheckHolding(mustAnalyze(t, k2).Graph, 18); err == nil {
		t.Error("held exit not caught")
	}
}
