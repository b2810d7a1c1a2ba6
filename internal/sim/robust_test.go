package sim

import (
	"errors"
	"strings"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
)

// TestIdleThresholdBoundary pins the idle-deadlock watchdog to its named
// Timing knob: a machine that never issues and never schedules an event
// must be declared dead after exactly IdleDeadlockThreshold idle cycles.
func TestIdleThresholdBoundary(t *testing.T) {
	k := &isa.Kernel{Name: "empty", GridCTAs: 1}
	for _, thr := range []int64{1, 4, 7} {
		d := &Device{
			Kernel: k,
			Policy: NewStaticPolicy(smallCfg()),
			Timing: Timing{MaxCycles: 1000, IdleDeadlockThreshold: thr},
		}
		_, err := d.Run()
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("thr=%d: err = %v, want ErrDeadlock", thr, err)
		}
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("thr=%d: err = %T, want *DeadlockError", thr, err)
		}
		if de.Kind != WedgeDeadlock {
			t.Fatalf("thr=%d: kind = %v, want WedgeDeadlock", thr, de.Kind)
		}
		if de.Cycle != thr {
			t.Errorf("thr=%d: declared dead at cycle %d, want exactly the threshold", thr, de.Cycle)
		}
	}

	// Zero means "use the default".
	d := &Device{
		Kernel: k,
		Policy: NewStaticPolicy(smallCfg()),
		Timing: Timing{MaxCycles: 1000},
	}
	_, err := d.Run()
	var de *DeadlockError
	if !errors.As(err, &de) || de.Cycle != DefaultIdleDeadlockThreshold {
		t.Fatalf("default threshold: got %v, want deadlock at cycle %d", err, DefaultIdleDeadlockThreshold)
	}
}

// TestNoFreeWarpSlotTyped pins the takeSlot failure path: exhausting the
// slot array latches a typed ErrNoWarpSlot instead of panicking, and Run
// surfaces it.
func TestNoFreeWarpSlotTyped(t *testing.T) {
	cfg := smallCfg()
	cfg.NumSMs = 1
	k := vecAdd(64, 32, 2)
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre}, WithPolicy(NewStaticPolicy(cfg)), WithGlobal(make([]uint64, k.GlobalMemWords)))
	if err != nil {
		t.Fatal(err)
	}
	sm := d.sms[0]
	for i := range sm.slots {
		sm.slots[i] = true
	}
	if idx := sm.takeSlot(); idx != -1 {
		t.Fatalf("takeSlot on a full SM = %d, want -1", idx)
	}
	_, err = d.Run()
	if !errors.Is(err, ErrNoWarpSlot) {
		t.Fatalf("Run() = %v, want ErrNoWarpSlot", err)
	}
	if !strings.Contains(err.Error(), "SM0") {
		t.Errorf("diagnostic does not name the SM: %v", err)
	}
}

// spinKernel loops essentially forever (2^40 iterations).
func spinKernel(threads int) *isa.Kernel {
	b := isa.NewBuilder("spin", 8, 2, threads)
	b.SetGrid(1)
	b.SetGlobalMem(64)
	b.MovSpecial(0, isa.SpecTID)
	b.Mov(1, isa.Imm(0))
	b.Label("top")
	b.IAdd(1, isa.R(1), isa.Imm(1))
	b.Setp(isa.PReg(0), isa.CmpLT, isa.R(1), isa.Imm(1<<40))
	b.BraIf(isa.PReg(0), "top")
	b.StGlobal(isa.R(0), 0, isa.R(1))
	b.Exit()
	return b.MustKernel()
}

// TestMaxCyclesIsTypedLivelock pins the last-resort ceiling: a kernel
// that is busy but never finishes aborts with a *DeadlockError of kind
// WedgeMaxCycles that classifies as ErrLivelock (it made progress, so it
// is not a deadlock).
func TestMaxCyclesIsTypedLivelock(t *testing.T) {
	cfg := smallCfg()
	cfg.NumSMs = 1
	pre, err := core.Prepare(spinKernel(32))
	if err != nil {
		t.Fatal(err)
	}
	timing := DefaultTiming()
	timing.MaxCycles = 10_000
	d, err := New(DeviceSpec{Config: cfg, Timing: timing, Kernel: pre}, WithPolicy(NewStaticPolicy(cfg)), WithGlobal(make([]uint64, 64)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if de.Kind != WedgeMaxCycles {
		t.Fatalf("kind = %v, want WedgeMaxCycles", de.Kind)
	}
	if !errors.Is(err, ErrLivelock) || errors.Is(err, ErrDeadlock) {
		t.Fatalf("MaxCycles abort misclassified: %v", err)
	}
	if de.MaxCycles != timing.MaxCycles {
		t.Errorf("diagnostic MaxCycles = %d, want %d", de.MaxCycles, timing.MaxCycles)
	}
}

// blockAcqPolicy wraps another policy and refuses every ACQ, counting
// the refused attempts — a minimal in-package stand-in for a policy bug
// that starves acquires while the rest of the machine stays busy.
type blockAcqPolicy struct{ inner Policy }

func (p blockAcqPolicy) Name() string                  { return p.inner.Name() + "+blockacq" }
func (p blockAcqPolicy) CTAsPerSM(k *isa.Kernel) int   { return p.inner.CTAsPerSM(k) }
func (p blockAcqPolicy) NewSMState(sm *SM) PolicyState { return &blockAcqState{inner: p.inner.NewSMState(sm)} }

type blockAcqState struct {
	inner    PolicyState
	attempts uint64
}

func (s *blockAcqState) TryIssue(w *Warp, in *isa.Instr, now int64) bool {
	if in.Op == isa.OpAcq {
		s.attempts++
		return false
	}
	return s.inner.TryIssue(w, in, now)
}
func (s *blockAcqState) OnIssued(w *Warp, in *isa.Instr, now int64) { s.inner.OnIssued(w, in, now) }
func (s *blockAcqState) OnCTALaunch(cta *CTAState)                  { s.inner.OnCTALaunch(cta) }
func (s *blockAcqState) OnCTARetire(cta *CTAState)                  { s.inner.OnCTARetire(cta) }
func (s *blockAcqState) OnWarpExit(w *Warp)                         { s.inner.OnWarpExit(w) }
func (s *blockAcqState) Priority(w *Warp) int                       { return s.inner.Priority(w) }
func (s *blockAcqState) Counters() (uint64, uint64, uint64) {
	a, ok, rel := s.inner.Counters()
	return a + s.attempts, ok, rel
}

// TestLivelockWatchdogCatchesAcquireSpin pins the progress-epoch
// watchdog: one warp spins uselessly (the machine issues every cycle, so
// the idle detector never fires) while another retries a starved acquire
// forever. The epoch watchdog must flag the livelock long before
// MaxCycles and count the stuck warp.
func TestLivelockWatchdogCatchesAcquireSpin(t *testing.T) {
	b := isa.NewBuilder("acqspin", 8, 2, 64)
	b.SetGrid(1)
	b.SetGlobalMem(64)
	b.MovSpecial(0, isa.SpecTID)
	b.Setp(isa.PReg(0), isa.CmpLT, isa.R(0), isa.Imm(32))
	b.BraIfNot(isa.PReg(0), "acq")
	// Warp 0: spin forever so "issued" keeps growing.
	b.Mov(1, isa.Imm(0))
	b.Label("spin")
	b.IAdd(1, isa.R(1), isa.Imm(1))
	b.Setp(isa.PReg(1), isa.CmpLT, isa.R(1), isa.Imm(1<<40))
	b.BraIf(isa.PReg(1), "spin")
	// Warp 1: an acquire the wrapped policy never grants.
	b.Label("acq")
	b.Acq()
	b.Rel()
	b.Exit()
	k := b.MustKernel()
	k.BaseSet, k.ExtSet = 6, 2
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	pre.BaseSet, pre.ExtSet = 6, 2

	cfg := smallCfg()
	cfg.NumSMs = 1
	timing := DefaultTiming()
	timing.MaxCycles = 1_000_000
	timing.ProgressEpoch = 2_000
	timing.LivelockEpochs = 2
	d, err := New(DeviceSpec{Config: cfg, Timing: timing, Kernel: pre}, WithPolicy(blockAcqPolicy{inner: NewStaticPolicy(cfg)}), WithGlobal(make([]uint64, 64)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Run()
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("Run() = %v, want ErrLivelock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %T, want *DeadlockError", err)
	}
	if de.Kind != WedgeLivelock {
		t.Fatalf("kind = %v, want WedgeLivelock (not the MaxCycles backstop)", de.Kind)
	}
	if de.Cycle >= timing.MaxCycles {
		t.Errorf("watchdog fired at cycle %d, not before MaxCycles %d", de.Cycle, timing.MaxCycles)
	}
	if de.StuckWarps < 1 {
		t.Errorf("diagnostic counts no stuck warps: %v", de)
	}
	if !strings.Contains(err.Error(), "issued nothing last epoch") {
		t.Errorf("diagnostic omits the per-warp progress clause: %v", err)
	}
}
