package faults

import (
	"errors"
	"testing"

	"regmutex/internal/audit"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

func testCfg() occupancy.Config {
	c := occupancy.GTX480()
	c.NumSMs = 2
	return c
}

// regLimitedKernel returns a transformed register-limited workload kernel
// plus its prepared original and input.
func regLimitedKernel(t *testing.T) (pre, xformed *isa.Kernel, bs int, input []uint64) {
	t.Helper()
	w := workloads.Fig7Set()[0]
	k := w.Build(8)
	p, err := core.Prepare(k)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	res, err := core.Transform(k, core.Options{Config: testCfg()})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if res.Disabled() {
		t.Fatalf("workload %s not transformed", w.Name)
	}
	return p, res.Kernel, res.Split.Bs, w.Input(k, 1)
}

// barrierKernel is a minimal two-warp-per-CTA kernel with one barrier.
func barrierKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("bartest", 8, 2, 64)
	b.MovSpecial(0, isa.SpecTID)
	b.StGlobal(isa.R(0), 0, isa.R(0))
	b.Bar()
	b.LdGlobal(1, isa.R(0), 0)
	b.StGlobal(isa.R(0), 128, isa.R(1))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 2
	k.GlobalMemWords = 256
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return pre
}

// runInjected runs kernel k under the planned fault with the auditor
// attached and a bounded cycle ceiling, returning the run error.
func runInjected(t *testing.T, k *isa.Kernel, pol sim.Policy, plan Plan, input []uint64) error {
	t.Helper()
	timing := sim.DefaultTiming()
	timing.MaxCycles = 2_000_000
	mem := append([]uint64(nil), input...)
	d, err := sim.New(sim.DeviceSpec{Config: testCfg(), Timing: timing, Kernel: k}, sim.WithPolicy(Inject(pol, plan)), sim.WithGlobal(mem))
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	audit.Attach(d, 0)
	_, err = d.Run()
	return err
}

// requireTyped asserts the error is one of the robustness net's typed
// classes and, for wedges, that a watchdog (not the MaxCycles backstop)
// caught it.
func requireTyped(t *testing.T, err error, plan Plan) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: fault escaped undetected (run completed cleanly)", plan)
	}
	typed := errors.Is(err, sim.ErrInvariant) ||
		errors.Is(err, sim.ErrDeadlock) ||
		errors.Is(err, sim.ErrLivelock)
	if !typed {
		t.Fatalf("%s: untyped error: %v", plan, err)
	}
	var de *sim.DeadlockError
	if errors.As(err, &de) && de.Kind == sim.WedgeMaxCycles {
		t.Fatalf("%s: fault escaped the watchdogs to the MaxCycles backstop: %v", plan, err)
	}
	t.Logf("%s caught: %v", plan, err)
}

func TestEveryFaultClassIsCaught(t *testing.T) {
	cfg := testCfg()
	pre, xformed, _, input := regLimitedKernel(t)

	t.Run("swallow-release", func(t *testing.T) {
		plan := Plan{Class: SwallowRelease, Warp: 0}
		err := runInjected(t, xformed, sim.NewRegMutexPolicy(cfg), plan, input)
		requireTyped(t, err, plan)
		if !errors.Is(err, sim.ErrInvariant) && !errors.Is(err, sim.ErrDeadlock) {
			t.Fatalf("want section leak or deadlock, got %v", err)
		}
	})

	t.Run("spurious-acq-fail", func(t *testing.T) {
		plan := Plan{Class: SpuriousAcqFail, Warp: 0}
		err := runInjected(t, xformed, sim.NewRegMutexPolicy(cfg), plan, input)
		requireTyped(t, err, plan)
		if !errors.Is(err, sim.ErrDeadlock) {
			t.Fatalf("want deadlock, got %v", err)
		}
		var de *sim.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("want *sim.DeadlockError, got %T", err)
		}
		if de.LiveWarps == 0 {
			t.Errorf("diagnostic reports no live warps: %v", de)
		}
	})

	t.Run("lost-writeback", func(t *testing.T) {
		plan := Plan{Class: LostWriteback, Warp: 0, After: 3}
		err := runInjected(t, xformed, sim.NewRegMutexPolicy(cfg), plan, input)
		requireTyped(t, err, plan)
		if !errors.Is(err, sim.ErrInvariant) {
			t.Fatalf("want scoreboard-horizon violation, got %v", err)
		}
	})

	t.Run("corrupt-srp-mask", func(t *testing.T) {
		plan := Plan{Class: CorruptSRPMask, Warp: 0}
		err := runInjected(t, xformed, sim.NewRegMutexPolicy(cfg), plan, input)
		requireTyped(t, err, plan)
		if !errors.Is(err, sim.ErrInvariant) {
			t.Fatalf("want SRP conservation violation, got %v", err)
		}
	})

	t.Run("stall-barrier", func(t *testing.T) {
		plan := Plan{Class: StallBarrier, Warp: 0}
		err := runInjected(t, barrierKernel(t), sim.NewStaticPolicy(cfg), plan, nil)
		requireTyped(t, err, plan)
		if !errors.Is(err, sim.ErrDeadlock) {
			t.Fatalf("want deadlock, got %v", err)
		}
		var de *sim.DeadlockError
		if errors.As(err, &de) && de.AtBarrier == 0 {
			t.Errorf("stranded-barrier diagnostic reports nobody at a barrier: %v", de)
		}
	})

	t.Run("corrupt-rfv-rows", func(t *testing.T) {
		plan := Plan{Class: CorruptRFVRows, Warp: 0, After: 5}
		err := runInjected(t, pre, sim.NewRFVPolicy(cfg), plan, input)
		requireTyped(t, err, plan)
		if !errors.Is(err, sim.ErrInvariant) {
			t.Fatalf("want RFV row-accounting violation, got %v", err)
		}
	})
}

func TestInjectorNameEncodesPlan(t *testing.T) {
	pol := Inject(sim.NewStaticPolicy(testCfg()), Plan{Class: StallBarrier, Warp: 3, After: 1})
	want := "static+stall-barrier@warp3+1"
	if pol.Name() != want {
		t.Fatalf("Name() = %q, want %q", pol.Name(), want)
	}
}

func TestDifferentialSmoke(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		if err := RunDifferential(uint64(seed)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDifferentialDeterministic(t *testing.T) {
	// Same seed, same kernel — generation is pure in the seed.
	a, b := GenKernel(42), GenKernel(42)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("GenKernel(42) differs across calls: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
}

// FuzzDifferential is the CI fuzz target: any byte-derived seed must
// produce agreement across all policies.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := RunDifferential(seed); err != nil {
			t.Fatal(err)
		}
	})
}
