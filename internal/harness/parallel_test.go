package harness

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// renderSome runs a representative slice of the evaluation (simulation
// experiments spanning every submit helper) and renders it the way
// cmd/paperbench would.
func renderSome(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	rows7, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig7(&buf, rows7)
	rows9, err := Fig9a(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig9(&buf, rows9, false)
	sweep, err := EsSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig10(&buf, sweep)
	rows13, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig13(&buf, rows13)
	seeds, err := SeedStability(o, []uint64{7, 42})
	if err != nil {
		t.Fatal(err)
	}
	PrintSeedStability(&buf, seeds)
	return buf.Bytes()
}

// TestParallelOutputMatchesSerial is the tentpole's determinism check:
// the rendered evaluation must be byte-identical whether simulations run
// serially or fan out across workers (with the memo cache deduplicating
// repeated baselines in both cases).
func TestParallelOutputMatchesSerial(t *testing.T) {
	base := tiny()
	serial, parallel := base, base
	serial.Pool = runpool.New(1)
	parallel.Pool = runpool.New(8)
	a := renderSome(t, serial)
	b := renderSome(t, parallel)
	if !bytes.Equal(a, b) {
		t.Errorf("-j 1 and -j 8 output differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestConcurrentExperimentsShareOnePool drives several experiments at
// once through a single shared pool, the way cmd/paperbench shares its
// pool across the whole invocation. Run with -race this doubles as the
// engine's data-race check.
func TestConcurrentExperimentsShareOnePool(t *testing.T) {
	o := tiny()
	o.Pool = runpool.New(4)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(4)
	go func() { defer wg.Done(); _, err := Fig7(o); errs <- err }()
	go func() { defer wg.Done(); _, err := Fig8(o); errs <- err }()
	go func() { defer wg.Done(); _, err := Fig9a(o); errs <- err }()
	go func() { defer wg.Done(); _, err := Energy(o); errs <- err }()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if _, misses := o.Pool.CacheStats(); misses == 0 {
		t.Error("shared pool simulated nothing")
	}
}

// TestCacheDeduplicatesAcrossExperiments pins the memoization payoff:
// Fig9a's reference runs are the same simulations Fig7 already did, so a
// shared pool must serve them from the cache.
func TestCacheDeduplicatesAcrossExperiments(t *testing.T) {
	o := tiny()
	o.Pool = runpool.New(1)
	if _, err := Fig7(o); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := o.Pool.CacheStats()
	if _, err := Fig9a(o); err != nil {
		t.Fatal(err)
	}
	hits, _ := o.Pool.CacheStats()
	if hits == 0 {
		t.Errorf("Fig9a reused nothing from Fig7 (0 hits after %d misses)", missesBefore)
	}
}

// TestExplicitZeroSeedHonored pins the -seed 0 fix: an explicitly chosen
// zero seed must survive normalize and produce a different run key (and
// so a different cached simulation) than the default seed 42.
func TestExplicitZeroSeedHonored(t *testing.T) {
	o := Options{Scale: 16, Seed: 0, SeedSet: true}
	if n := o.normalize(); n.Seed != 0 {
		t.Errorf("explicit seed 0 rewritten to %d", n.Seed)
	}
	if n := (Options{Scale: 16}).normalize(); n.Seed != 42 {
		t.Errorf("unset seed defaulted to %d, want 42", n.Seed)
	}
}

// TestSeedZeroDiffersFromSeed42 demonstrates the observable half of the
// fix: before it, -seed 0 silently reran the seed-42 simulations — same
// inputs, same cache entries. (Cycle counts are input-stable by design,
// so the witnesses are the generated inputs here and the memo keys in
// TestRunSpecKeyIsTheSimulationIdentity.)
func TestSeedZeroDiffersFromSeed42(t *testing.T) {
	w, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	k := w.Build(16)
	in0, in42 := w.Input(k, 0), w.Input(k, 42)
	if len(in0) == len(in42) {
		same := true
		for i := range in0 {
			if in0[i] != in42[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seed 0 generated the same input as seed 42")
		}
	}
}

// TestRunSpecKeyIsTheSimulationIdentity pins the one memo key rule:
// every field that can change a run's result changes the key, and the
// execution knobs and observers do not, so observed, unobserved and
// differently-parallel submissions of one point share a simulation.
func TestRunSpecKeyIsTheSimulationIdentity(t *testing.T) {
	w, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	k := w.Build(16)
	cfg := occupancy.GTX480()
	pool := runpool.New(1)
	o := Options{Scale: 16, Pool: pool}
	base := o.Spec(cfg, w, k)
	want := base.key("regmutex")
	for _, tc := range []struct {
		name   string
		spec   func(RunSpec) RunSpec
		policy string
		same   bool
	}{
		{"policy", func(s RunSpec) RunSpec { return s }, "paired", false},
		{"forced es", func(s RunSpec) RunSpec { s.ForceEs = 4; return s }, "regmutex", false},
		{"kernel", func(s RunSpec) RunSpec { s.Kernel = w.Build(8); return s }, "regmutex", false},
		{"machine", func(s RunSpec) RunSpec { s.Machine = occupancy.GTX480Half(); return s }, "regmutex", false},
		{"seed", func(s RunSpec) RunSpec { s.Seed++; return s }, "regmutex", false},
		{"explicit seed 0 vs default 42", func(RunSpec) RunSpec {
			return Options{Scale: 16, Seed: 0, SeedSet: true, Pool: pool}.Spec(cfg, w, k)
		}, "regmutex", false},
		{"assembly input", func(s RunSpec) RunSpec { s.Workload = nil; return s }, "regmutex", false},
		{"timing", func(s RunSpec) RunSpec { s.Timing.MaxCycles++; return s }, "regmutex", false},
		{"audit", func(s RunSpec) RunSpec { s.Audit = !s.Audit; return s }, "regmutex", false},
		{"zero timing means default", func(s RunSpec) RunSpec { s.Timing = sim.Timing{}; return s }, "regmutex", true},
		{"par", func(s RunSpec) RunSpec { s.Par = 4; return s }, "regmutex", true},
		{"pool", func(s RunSpec) RunSpec { s.Pool = runpool.New(2); return s }, "regmutex", true},
		{"policies list", func(s RunSpec) RunSpec { s.Policies = PolicyNames; return s }, "regmutex", true},
		{"observers", func(RunSpec) RunSpec {
			return Options{Scale: 16, Pool: pool, Trace: obs.NewTrace(0), Metrics: obs.NewRegistry()}.Spec(cfg, w, k)
		}, "regmutex", true},
	} {
		got := tc.spec(base).key(tc.policy)
		if (got == want) != tc.same {
			t.Errorf("%s: key equal to base = %v, want %v\n got  %s\n base %s", tc.name, got == want, tc.same, got, want)
		}
	}
}

// TestDaemonPathSharesRunsWithFigures pins the one run path: a policy
// comparison submitted the way gpusimd's sim jobs build it (RunPolicies
// over a RunSpec) lands under the same memo keys as the figure sweeps,
// so Fig7 on the same pool reuses both bfs runs.
func TestDaemonPathSharesRunsWithFigures(t *testing.T) {
	o := tiny()
	o.Pool = runpool.New(1)
	o = o.normalize()
	w, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Machine: o.machine(occupancy.GTX480()), Kernel: w.Build(o.Scale), Workload: w,
		Seed: o.Seed, Policies: []string{"static", "regmutex"}, Audit: o.Audit, Pool: o.Pool,
	}
	rows, hits := RunPolicies(context.Background(), spec)
	if hits != 0 {
		t.Fatalf("fresh pool served %d hits", hits)
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Policy, r.Err)
		}
	}
	hits0, _ := o.Pool.CacheStats()
	fig7, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if hits1, _ := o.Pool.CacheStats(); hits1-hits0 < 2 {
		t.Errorf("Fig7 reused %d of the daemon path's 2 runs", hits1-hits0)
	}
	for _, r := range fig7 {
		if r.Name == "bfs" && (r.BaselineCycles != rows[0].Stats.Cycles || r.Cycles != rows[1].Stats.Cycles) {
			t.Errorf("bfs cycles %d/%d, daemon path %d/%d",
				r.BaselineCycles, r.Cycles, rows[0].Stats.Cycles, rows[1].Stats.Cycles)
		}
	}
}
