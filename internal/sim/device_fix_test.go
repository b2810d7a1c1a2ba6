package sim

import (
	"fmt"
	"strings"
	"testing"

	"regmutex/internal/isa"
)

// TestEmptyGlobalAccess pins the empty-segment behavior of global memory:
// a non-nil zero-length slice (which WithGlobal keeps as-is) must not
// panic the interpreter; loads read zero, stores are dropped, and every
// access is counted out-of-bounds.
func TestEmptyGlobalAccess(t *testing.T) {
	b := isa.NewBuilder("emptyglobal", 8, 2, isa.WarpSize)
	b.MovSpecial(0, isa.SpecTID)
	b.LdGlobal(1, isa.R(0), 0)
	b.IAdd(2, isa.R(1), isa.Imm(7))
	b.StGlobal(isa.R(0), 0, isa.R(2))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 1

	d, err := New(DeviceSpec{Config: smallCfg(), Timing: DefaultTiming(), Kernel: k}, WithGlobal([]uint64{}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatalf("run with empty global: %v", err)
	}
	if st.OOBAccesses == 0 {
		t.Error("accesses to an empty global segment were not counted out-of-bounds")
	}
	if len(d.Global) != 0 {
		t.Errorf("device grew the empty global segment to %d words", len(d.Global))
	}
}

// TestDeadlockErrorMultiKernel pins the co-scheduling diagnostic: the
// message must name every kernel, report the combined grid as the CTA
// target, and decode the stalled instruction against the stalled warp's
// own kernel (not kernels[0]).
func TestDeadlockErrorMultiKernel(t *testing.T) {
	ka, kb, ga, gb := twoKernels(t)
	d, err := NewMultiDevice(smallCfg(), DefaultTiming(), []*isa.Kernel{ka, kb}, [][]uint64{ga, gb})
	if err != nil {
		t.Fatal(err)
	}
	msg := d.wedgeError(WedgeDeadlock).Error()
	if !strings.Contains(msg, "bfs+mriq") {
		t.Errorf("diagnostic does not name both kernels: %q", msg)
	}
	want := fmt.Sprintf("0/%d CTAs done", d.targetCTAs)
	if !strings.Contains(msg, want) {
		t.Errorf("diagnostic target is not the combined grid (want %q): %q", want, msg)
	}
	if !strings.Contains(msg, "(kernel ") {
		t.Errorf("diagnostic does not attribute the stalled warp to its kernel: %q", msg)
	}
}

// TestMultiBackfillFairness pins the round-robin rotation: kernels take
// strict turns while both have pending CTAs, a drained kernel's turn
// passes to the next without stalling the rotation, and the index stays
// within [0, len(grids)).
func TestMultiBackfillFairness(t *testing.T) {
	mk := func(name string, ctas int) *isa.Kernel {
		k := vecAdd(64, isa.WarpSize, ctas)
		k.Name = name
		return k
	}
	ka, kb := mk("a", 3), mk("b", 5)
	cfg := smallCfg()
	cfg.NumSMs = 1
	d := &Device{
		Config:     cfg,
		Timing:     DefaultTiming(),
		Kernel:     ka,
		Policy:     NewStaticPolicy(cfg),
		grids:      []grid{{kern: ka, global: make([]uint64, 64)}, {kern: kb, global: make([]uint64, 64)}},
		fits:       (*SM).canHost,
		targetCTAs: ka.GridCTAs + kb.GridCTAs,
	}
	sm := newSM(d, 0)
	sm.policy = nopState{}
	d.sms = []*SM{sm}

	var order []string
	for d.backfill(sm) {
		order = append(order, sm.ctas[len(sm.ctas)-1].kern.Name)
		if d.rr < 0 || d.rr >= len(d.grids) {
			t.Fatalf("rotation index %d out of [0,%d)", d.rr, len(d.grids))
		}
	}
	// Strict alternation while both grids are live (a:3 + b:3), then b
	// drains its remaining two CTAs; 8 CTAs fill the SM's CTA cap.
	want := "a b a b a b b b"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("launch order %q, want %q", got, want)
	}
	if d.grids[0].next != 3 || d.grids[1].next != 5 {
		t.Errorf("launched %d/%d CTAs of a, %d/%d of b",
			d.grids[0].next, ka.GridCTAs, d.grids[1].next, kb.GridCTAs)
	}
}
