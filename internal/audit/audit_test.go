package audit

import (
	"errors"
	"strings"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

func smallCfg() occupancy.Config {
	c := occupancy.GTX480()
	c.NumSMs = 2
	return c
}

func TestCleanRunsPassEveryPolicy(t *testing.T) {
	cfg := smallCfg()
	w := workloads.Fig7Set()[0]
	k := w.Build(8)
	input := w.Input(k, 1)

	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	res, err := core.Transform(k, core.Options{Config: cfg})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if res.Disabled() {
		t.Fatalf("workload %s not transformed; pick a register-limited one", w.Name)
	}

	cases := []struct {
		name string
		kern *isa.Kernel
		pol  sim.Policy
	}{
		{"baseline", pre, sim.NewStaticPolicy(cfg)},
		{"regmutex", res.Kernel, sim.NewRegMutexPolicy(cfg)},
		{"paired", res.Kernel, sim.NewPairedPolicy(cfg)},
		{"owf", pre, sim.NewOWFPolicy(cfg, res.Split.Bs)},
		{"rfv", pre, sim.NewRFVPolicy(cfg)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := append([]uint64(nil), input...)
			d, err := sim.New(sim.DeviceSpec{Config: cfg, Timing: sim.DefaultTiming(), Kernel: tc.kern},
				sim.WithPolicy(tc.pol), sim.WithGlobal(mem), sim.WithAudit(Standard(0))) // audit every simulated step
			if err != nil {
				t.Fatalf("device: %v", err)
			}
			if _, err := d.Run(); err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
		})
	}
}

func TestViolationClassifiesAsInvariant(t *testing.T) {
	v := &Violation{Rule: "srp-conservation", SM: 3, Warp: 7, PC: 12, Cycle: 99, Detail: "section 2 busy but unowned"}
	if !errors.Is(v, sim.ErrInvariant) {
		t.Fatalf("Violation does not unwrap to sim.ErrInvariant")
	}
	msg := v.Error()
	for _, want := range []string{"srp-conservation", "SM3", "warp 7", "pc 12", "cycle 99", "section 2 busy but unowned"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
	dev := &Violation{Rule: "slot-accounting", SM: -1, Warp: -1, PC: -1, Cycle: 5, Detail: "x"}
	if msg := dev.Error(); !strings.Contains(msg, "device") {
		t.Errorf("device-wide diagnostic %q should name %q", msg, "device")
	}
}

func TestAuditEpochThrottling(t *testing.T) {
	// With Every set, CheckCycle must skip cycles inside the epoch.
	calls := 0
	a := New(100, checkerFunc(func(d *sim.Device, now int64) *Violation {
		calls++
		return nil
	}))
	for now := int64(0); now < 1000; now++ {
		if err := a.CheckCycle(nil, now); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 10 {
		t.Fatalf("checker ran %d times over 1000 cycles with Every=100, want 10", calls)
	}
}

// checkerFunc adapts a function to the Checker interface for tests.
type checkerFunc func(d *sim.Device, now int64) *Violation

func (checkerFunc) Name() string                                { return "test" }
func (f checkerFunc) Check(d *sim.Device, now int64) *Violation { return f(d, now) }

// TestCoScheduledRunPassesAudit audits a co-scheduled device every step:
// the auditor attaches through NewMultiDevice's options, as on New.
func TestCoScheduledRunPassesAudit(t *testing.T) {
	var kernels []*isa.Kernel
	var mems [][]uint64
	for _, name := range []string{"bfs", "mriq"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(8)
		pre, err := core.Prepare(k)
		if err != nil {
			t.Fatalf("prepare %s: %v", name, err)
		}
		kernels, mems = append(kernels, pre), append(mems, w.Input(k, 1))
	}
	a := Standard(0)
	d, err := sim.NewMultiDevice(smallCfg(), sim.DefaultTiming(), kernels, mems, sim.WithAudit(a))
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatalf("audited co-scheduled run failed: %v", err)
	}
	if want := kernels[0].GridCTAs + kernels[1].GridCTAs; st.CTAs != want {
		t.Errorf("CTAs = %d, want %d", st.CTAs, want)
	}
	if !a.ran {
		t.Error("the auditor never ran")
	}
}
