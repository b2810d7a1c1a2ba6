package sim

import (
	"slices"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// twoKernels prepares a dissimilar pair for co-scheduling tests.
func twoKernels(t *testing.T) (ka, kb *isa.Kernel, ga, gb []uint64) {
	t.Helper()
	wa, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := workloads.ByName("mriq")
	if err != nil {
		t.Fatal(err)
	}
	a := wa.Build(16)
	b := wb.Build(16)
	ga = wa.Input(a, 42)
	gb = wb.Input(b, 42)
	ka, err = core.Prepare(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err = core.Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	return ka, kb, ga, gb
}

func TestMultiDeviceRefusesExtendedSets(t *testing.T) {
	cfg := smallCfg()
	w, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	k := w.Build(16)
	res, err := core.Transform(k, core.Options{Config: occupancy.GTX480()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disabled() {
		t.Fatal("setup: bfs should transform")
	}
	if _, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{res.Kernel}, nil); err == nil {
		t.Error("co-scheduling must refuse kernels with an extended set (the section IV fallback)")
	}
}

func TestMultiDeviceFunctionalIsolation(t *testing.T) {
	cfg := smallCfg()
	ka, kb, ga, gb := twoKernels(t)

	// Reference: each kernel alone.
	refA, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: ka}, WithGlobal(append([]uint64(nil), ga...)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refA.Run(); err != nil {
		t.Fatal(err)
	}
	refB, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: kb}, WithGlobal(append([]uint64(nil), gb...)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refB.Run(); err != nil {
		t.Fatal(err)
	}

	// Co-scheduled: both kernels share the SMs but not their memories.
	d, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka, kb},
		[][]uint64{append([]uint64(nil), ga...), append([]uint64(nil), gb...)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.CTAs != ka.GridCTAs+kb.GridCTAs {
		t.Fatalf("CTAs = %d, want %d", st.CTAs, ka.GridCTAs+kb.GridCTAs)
	}
	for i, want := range refA.Global {
		if d.GlobalOf(0)[i] != want {
			t.Fatalf("kernel A memory diverges at %d under co-scheduling", i)
		}
	}
	for i, want := range refB.Global {
		if d.GlobalOf(1)[i] != want {
			t.Fatalf("kernel B memory diverges at %d under co-scheduling", i)
		}
	}
}

func TestMultiDeviceImprovesUtilisation(t *testing.T) {
	// bfs is register-limited (32 of 48 warps); mriq's CTAs can fill
	// the leftover slots, so co-scheduling should beat running the two
	// kernels back to back.
	cfg := smallCfg()
	ka, kb, ga, gb := twoKernels(t)

	seq := int64(0)
	for _, p := range []struct {
		k *isa.Kernel
		g []uint64
	}{{ka, ga}, {kb, gb}} {
		d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: p.k}, WithGlobal(append([]uint64(nil), p.g...)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		seq += st.Cycles
	}

	d, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka, kb},
		[][]uint64{append([]uint64(nil), ga...), append([]uint64(nil), gb...)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles >= seq {
		t.Errorf("co-scheduling (%d cycles) did not beat sequential (%d)", st.Cycles, seq)
	}
	t.Logf("sequential %d vs co-scheduled %d cycles (%.1f%% better)",
		seq, st.Cycles, 100*(1-float64(st.Cycles)/float64(seq)))
}

func TestMultiDeviceResourceAccounting(t *testing.T) {
	// Never overcommit any SM resource, sampled during the run.
	cfg := smallCfg()
	ka, kb, ga, gb := twoKernels(t)
	var d *Device
	check := func() {
		for _, sm := range d.sms {
			threads, rows, shared := 0, 0, 0
			for _, c := range sm.ctas {
				threads += c.kern.ThreadsPerCTA
				rows += c.kern.WarpsPerCTA() * c.kern.AllocRegs()
				shared += c.kern.SharedMemWords
			}
			if threads > cfg.MaxThreadsPerSM || rows > cfg.WarpRegisters() ||
				shared > cfg.SharedWordsPerSM || len(sm.ctas) > cfg.MaxCTAsPerSM {
				t.Fatalf("SM%d overcommitted: threads=%d rows=%d shared=%d ctas=%d",
					sm.id, threads, rows, shared, len(sm.ctas))
			}
		}
	}
	d, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka, kb}, [][]uint64{ga, gb},
		WithObserver(ObserverFuncs{Sample: func(Sample) { check() }}), WithSampleInterval(64))
	if err != nil {
		t.Fatal(err)
	}
	check()
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDeviceDegenerateInputs(t *testing.T) {
	cfg := smallCfg()
	if _, err := NewMultiDevice(cfg, DefaultTiming(), nil, nil); err == nil {
		t.Error("empty kernel list must fail")
	}
	ka, _, ga, _ := twoKernels(t)
	if _, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka}, [][]uint64{ga, ga}); err == nil {
		t.Error("mismatched memory count must fail")
	}
	// Co-scheduling is static allocation on positional memories.
	if _, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka}, nil, WithPolicy(NewRegMutexPolicy(cfg))); err == nil {
		t.Error("WithPolicy must be refused")
	}
	if _, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka}, nil, WithGlobal(ga)); err == nil {
		t.Error("WithGlobal must be refused")
	}
	// Single kernel through the multi path still works.
	d, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{ka}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
}

// A single kernel must behave identically through New and a one-kernel
// NewMultiDevice: the same Stats, memory, and launch/retire event stream
// (the accounting generalisation is exact).
func TestMultiDeviceSingleKernelEquivalence(t *testing.T) {
	cfg := smallCfg()
	w, err := workloads.ByName("mriq")
	if err != nil {
		t.Fatal(err)
	}
	k := w.Build(16)
	g := w.Input(k, 42)
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}

	var ev1, ev2 []Event
	record := func(evs *[]Event) Option {
		return WithObserver(ObserverFuncs{Event: func(ev Event) { *evs = append(*evs, ev) }})
	}
	d1, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre},
		WithGlobal(append([]uint64(nil), g...)), record(&ev1))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d1.Run()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewMultiDevice(cfg, DefaultTiming(), []*isa.Kernel{pre},
		[][]uint64{append([]uint64(nil), g...)}, record(&ev2))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("paths diverge:\nsingle %+v\nmulti  %+v", s1, s2)
	}
	if len(ev1) == 0 || !slices.Equal(ev1, ev2) {
		t.Errorf("event streams diverge: %d single vs %d multi events", len(ev1), len(ev2))
	}
	for i := range d1.Global {
		if d1.Global[i] != d2.GlobalOf(0)[i] {
			t.Fatalf("memory diverges at %d", i)
		}
	}
}
