package workloads

import (
	"testing"

	"regmutex/internal/cfg"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	if got := len(All()); got != 16 {
		t.Fatalf("registry has %d workloads, want 16 (Table I)", got)
	}
	if got := len(Fig7Set()); got != 8 {
		t.Errorf("Fig7 set has %d, want 8", got)
	}
	if got := len(Fig8Set()); got != 8 {
		t.Errorf("Fig8 set has %d, want 8", got)
	}
	if _, err := ByName("bfs"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should fail for unknown workloads")
	}
}

func TestKernelsValidateAndMatchTableI(t *testing.T) {
	for _, w := range All() {
		k := w.Build(4)
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if k.NumRegs != w.PaperRegs {
			t.Errorf("%s: NumRegs = %d, Table I says %d", w.Name, k.NumRegs, w.PaperRegs)
		}
		// Every architected register must actually be touched.
		if got := k.MaxTouchedReg(); got != k.NumRegs-1 {
			t.Errorf("%s: max touched reg r%d but NumRegs %d", w.Name, got, k.NumRegs)
		}
	}
}

func TestNoReadBeforeWrite(t *testing.T) {
	for _, w := range All() {
		k := w.Build(4)
		g, err := cfg.Build(k)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		inf := liveness.Analyze(k, g)
		if u := inf.UndefinedAtEntry(); !u.Empty() {
			t.Errorf("%s: reads %s before definition", w.Name, u)
		}
	}
}

// TestHeuristicSplits is the Table I calibration: the |Es| heuristic on
// the target machine should reproduce the paper's base-set sizes. Known,
// documented deviations (where our CTA-granularity occupancy arithmetic
// cannot reproduce the paper's pick) are listed explicitly so regressions
// elsewhere still fail the test.
func TestHeuristicSplits(t *testing.T) {
	knownDeviation := map[string]int{
		// paper Bs -> our Bs, see EXPERIMENTS.md for the analysis
		"dwt2d":     40, // paper 38
		"lavamd":    30, // paper 28
		"mergesort": 14, // paper 12
	}
	for _, w := range All() {
		machine := occupancy.GTX480()
		if !w.RegisterLimited {
			machine = occupancy.GTX480Half()
		}
		k := w.Build(4)
		res, err := core.Transform(k, core.Options{Config: machine})
		if err != nil {
			t.Errorf("%s: transform: %v", w.Name, err)
			continue
		}
		if res.Disabled() {
			t.Errorf("%s: transform disabled on %s: %s", w.Name, machine.Name, res.Split.Reason)
			continue
		}
		want := w.PaperBs
		if dev, ok := knownDeviation[w.Name]; ok {
			want = dev
		}
		if res.Split.Bs != want {
			t.Errorf("%s: heuristic Bs = %d (Es=%d, sections=%d, warps=%d), want %d (paper %d)",
				w.Name, res.Split.Bs, res.Split.Es, res.Split.Sections, res.Split.Warps, want, w.PaperBs)
		}
	}
}

// Fig8 workloads must be untouched by RegMutex on the full register file
// (their occupancy is not register-limited there).
func TestFig8DisabledOnFullRF(t *testing.T) {
	for _, w := range Fig8Set() {
		k := w.Build(4)
		res, err := core.Transform(k, core.Options{Config: occupancy.GTX480()})
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if !res.Disabled() {
			t.Errorf("%s: expected zero-sized extended set on the full RF, got Bs=%d Es=%d",
				w.Name, res.Split.Bs, res.Split.Es)
		}
	}
}

// Fig7 workloads must be register-limited on the baseline.
func TestFig7RegisterLimited(t *testing.T) {
	c := occupancy.GTX480()
	for _, w := range Fig7Set() {
		k := w.Build(4)
		base := occupancy.Baseline(c, k)
		free := occupancy.Unconstrained(c, k)
		if base.WarpsPerSM >= free.WarpsPerSM {
			t.Errorf("%s: not register-limited (base %d warps, unconstrained %d)",
				w.Name, base.WarpsPerSM, free.WarpsPerSM)
		}
	}
}

// Every workload must run to completion on the simulator, both untouched
// and transformed, with identical memory contents.
func TestWorkloadsRunAndMatch(t *testing.T) {
	machine := occupancy.GTX480()
	machine.NumSMs = 2
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			k := w.Build(16)
			cfgRun := machine
			input := w.Input(k, 42)

			pre, err := core.Prepare(k)
			if err != nil {
				t.Fatal(err)
			}
			d1, err := sim.New(sim.DeviceSpec{Config: cfgRun, Timing: sim.DefaultTiming(), Kernel: pre}, sim.WithPolicy(sim.NewStaticPolicy(cfgRun)), sim.WithGlobal(append([]uint64(nil), input...)))
			if err != nil {
				t.Fatal(err)
			}
			st1, err := d1.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st1.OOBAccesses > 0 {
				t.Errorf("static run has %d out-of-bounds accesses", st1.OOBAccesses)
			}

			target := occupancy.GTX480()
			if !w.RegisterLimited {
				target = occupancy.GTX480Half()
			}
			res, err := core.Transform(k, core.Options{Config: target})
			if err != nil {
				t.Fatal(err)
			}
			runCfg := target
			runCfg.NumSMs = 2
			d2, err := sim.New(sim.DeviceSpec{Config: runCfg, Timing: sim.DefaultTiming(), Kernel: res.Kernel}, sim.WithPolicy(sim.NewRegMutexPolicy(runCfg)), sim.WithGlobal(append([]uint64(nil), input...)))
			if err != nil {
				t.Fatal(err)
			}
			st2, err := d2.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i := range d1.Global {
				if d1.Global[i] != d2.Global[i] {
					t.Fatalf("memory diverges at word %d: static=%d regmutex=%d", i, d1.Global[i], d2.Global[i])
				}
			}
			if !res.Disabled() && st2.AcquireAttempts == 0 {
				t.Errorf("transformed kernel never acquired")
			}
		})
	}
}

// The liveness profile must fluctuate (Figure 1's premise): peak live
// count well above the steady-state count.
func TestLivenessProfilesFluctuate(t *testing.T) {
	for _, name := range []string{"cutcp", "dwt2d", "heartwall", "hotspot3d", "particlefilter", "sad"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(4)
		g, err := cfg.Build(k)
		if err != nil {
			t.Fatal(err)
		}
		inf := liveness.Analyze(k, g)
		lo, hi := k.NumRegs, 0
		for i := range k.Instrs {
			c := inf.CountAt(i)
			if k.Instrs[i].Op == isa.OpExit {
				continue
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi < k.NumRegs-4 {
			t.Errorf("%s: peak live %d never approaches NumRegs %d", name, hi, k.NumRegs)
		}
		if lo > k.NumRegs/2 {
			t.Errorf("%s: minimum live %d too high — no fluctuation (regs %d)", name, lo, k.NumRegs)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, w := range All() {
		k := w.Build(8)
		a := w.Input(k, 7)
		b := w.Input(k, 7)
		if len(a) != k.GlobalMemWords {
			t.Errorf("%s: input length %d != GlobalMemWords %d", w.Name, len(a), k.GlobalMemWords)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: input not deterministic at %d", w.Name, i)
				break
			}
		}
	}
}
