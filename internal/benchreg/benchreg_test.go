package benchreg

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"regmutex/internal/saturate"
	"regmutex/internal/service"
	"regmutex/internal/workspec"
)

func point(cyclesPerSec, jobsPerSec, p99 float64) *Result {
	return &Result{
		SchemaVersion: SchemaVersion,
		Date:          "2026-08-06",
		Quick:         true,
		Sim: []SimPoint{
			{Workload: "bfs", Policy: "static", Cycles: 1000, WallSeconds: 1, CyclesPerSec: cyclesPerSec},
			{Workload: "bfs", Policy: "regmutex", Cycles: 1000, WallSeconds: 1, CyclesPerSec: 2 * cyclesPerSec},
		},
		Service: &ServicePoint{
			Jobs: 24, JobsPerSec: jobsPerSec,
			Latency: Quantiles{Count: 24, P50: p99 / 2, P99: p99, Max: p99 * 1.5},
		},
	}
}

// specPoint upgrades a legacy point to the spec-pipeline schema: spec
// identities on the service section plus a load section.
func specPoint(cyclesPerSec, jobsPerSec, p99 float64, specName, specID string) *Result {
	r := point(cyclesPerSec, jobsPerSec, p99)
	r.Service.Spec, r.Service.SpecID = specName, specID
	r.Load = &LoadPoint{
		Spec: specName, SpecID: specID, Seed: 1,
		Jobs: 24, JobsPerSec: jobsPerSec, MemoHitRate: 0.5,
		Classes: map[string]ClassPoint{
			"legacy": {Jobs: 24, Coalesced: 12, Latency: Quantiles{Count: 24, P50: p99 / 2, P99: p99, Max: p99 * 1.5}},
		},
	}
	return r
}

func TestCompareCleanPass(t *testing.T) {
	old := point(1e6, 10, 50)
	// Noise well inside the 10% budget, in both directions.
	cur := point(0.95e6, 10.5, 52)
	regs, warns, err := Compare(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	if len(warns) != 0 {
		t.Fatalf("unexpected warnings: %v", warns)
	}
}

func TestCompareDetectsInjectedRegressions(t *testing.T) {
	old := point(1e6, 10, 50)

	// Injected sim throughput collapse: 40% slower.
	slow := point(0.6e6, 10, 50)
	regs, _, err := Compare(old, slow, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 || !strings.Contains(regs[0], "cycles_per_sec") {
		t.Fatalf("sim regression not detected: %v", regs)
	}

	// Injected tail-latency blowup.
	laggy := point(1e6, 10, 200)
	regs, _, err = Compare(old, laggy, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if strings.Contains(r, "latency_p99_ms") {
			found = true
		}
	}
	if !found {
		t.Fatalf("latency regression not detected: %v", regs)
	}

	// Injected throughput drop on the service side.
	slowSvc := point(1e6, 5, 50)
	regs, _, err = Compare(old, slowSvc, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 || !strings.Contains(regs[0], "jobs_per_sec") {
		t.Fatalf("service throughput regression not detected: %v", regs)
	}

	// A benchmark cell silently vanishing is itself a regression.
	missing := point(1e6, 10, 50)
	missing.Sim = missing.Sim[:1]
	regs, _, err = Compare(old, missing, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing cell not detected: %v", regs)
	}
}

// TestCompareForwardCompatibleSchema: an older trajectory point that
// predates the load section (and spec identities) must compare cleanly
// against a new-schema point — a warning, never a regression or an
// error. This is the additive-schema contract that keeps the committed
// baseline usable across feature growth.
func TestCompareForwardCompatibleSchema(t *testing.T) {
	old := point(1e6, 10, 50) // pre-spec: no Load, no spec identities
	cur := specPoint(1e6, 10, 50, "legacy-quick", "00000000deadbeef")
	regs, warns, err := Compare(old, cur, 0.10)
	if err != nil {
		t.Fatalf("additive schema growth must not make points incomparable: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("additive schema fields misread as regressions: %v", regs)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "predates the load section") {
		t.Fatalf("missing old-point-predates warning, got: %v", warns)
	}

	// The legacy-family service section still compares against pre-spec
	// points (same traffic): a real throughput drop must be caught.
	slow := specPoint(1e6, 5, 50, "legacy-quick", "00000000deadbeef")
	regs, _, err = Compare(old, slow, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 || !strings.Contains(regs[0], "service jobs_per_sec") {
		t.Fatalf("legacy-compatible service comparison lost: %v", regs)
	}
}

// TestCompareSpecIdentityGating: load/service sections measured under
// different workload specs are warned about and skipped, not diffed.
func TestCompareSpecIdentityGating(t *testing.T) {
	old := specPoint(1e6, 10, 50, "bursty-mix", "1111111111111111")
	// Same spec identity: a latency blowup in a class is a regression.
	laggy := specPoint(1e6, 10, 200, "bursty-mix", "1111111111111111")
	regs, warns, err := Compare(old, laggy, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("matching identities should not warn: %v", warns)
	}
	foundClass := false
	for _, r := range regs {
		if strings.Contains(r, "load legacy latency_p99_ms") {
			foundClass = true
		}
	}
	if !foundClass {
		t.Fatalf("per-class latency regression not detected: %v", regs)
	}

	// Different spec: even a huge delta is not comparable — warn + skip.
	other := specPoint(1e6, 1, 5000, "other-spec", "2222222222222222")
	regs, warns, err = Compare(old, other, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if strings.Contains(r, "load") || strings.Contains(r, "service") {
			t.Fatalf("cross-spec sections were diffed: %v", regs)
		}
	}
	if len(warns) < 2 {
		t.Fatalf("expected service+load identity warnings, got: %v", warns)
	}

	// A vanished SLO class under the SAME spec is a regression.
	gone := specPoint(1e6, 10, 50, "bursty-mix", "1111111111111111")
	gone.Load.Classes = map[string]ClassPoint{}
	regs, _, err = Compare(old, gone, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if strings.Contains(r, `slo class "legacy" missing`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("vanished SLO class not detected: %v", regs)
	}
}

func TestCompareRefusesIncomparable(t *testing.T) {
	old := point(1e6, 10, 50)
	newer := point(1e6, 10, 50)
	newer.SchemaVersion = SchemaVersion + 1
	if _, _, err := Compare(old, newer, 0.10); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	full := point(1e6, 10, 50)
	full.Quick = false
	if _, _, err := Compare(old, full, 0.10); err == nil {
		t.Fatal("quick-vs-full comparison accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	old := specPoint(1e6, 10, 50, "legacy-quick", "00000000deadbeef")
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Sim) != 2 || got.Service == nil {
		t.Fatalf("round trip mangled the result: %+v", got)
	}
	if got.Sim[0].CyclesPerSec != 1e6 || got.Service.Latency.P99 != 50 {
		t.Fatalf("values changed in round trip: %+v", got)
	}
	if got.Load == nil || got.Load.SpecID != "00000000deadbeef" || got.Load.Classes["legacy"].Jobs != 24 {
		t.Fatalf("load section mangled in round trip: %+v", got.Load)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestDefaultFilename(t *testing.T) {
	name := DefaultFilename()
	if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") || len(name) != len("BENCH_2026-08-06.json") {
		t.Fatalf("unexpected trajectory filename %q", name)
	}
}

// TestRunQuickEndToEnd runs the real harness in its smallest shape —
// one cell, a few loopback jobs through the legacy spec shim — and
// checks the trajectory point is coherent. This is the
// `benchreg -quick` path CI exercises.
func TestRunQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	res, err := Run(Options{
		Quick:     true,
		Workloads: []string{"bfs"},
		Policies:  []string{"static"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != SchemaVersion || res.Date == "" || res.GoVersion == "" {
		t.Fatalf("missing stamp fields: %+v", res)
	}
	if len(res.Sim) != 1 {
		t.Fatalf("sim cells = %d, want 1", len(res.Sim))
	}
	cell := res.Sim[0]
	if cell.Cycles <= 0 || cell.CyclesPerSec <= 0 || cell.WallSeconds <= 0 {
		t.Fatalf("degenerate sim cell: %+v", cell)
	}
	svc := res.Service
	if svc == nil || svc.Jobs != 24 || svc.JobsPerSec <= 0 {
		t.Fatalf("degenerate service phase: %+v", svc)
	}
	if svc.Spec != "legacy-quick" || svc.SpecID == "" {
		t.Fatalf("service point not stamped with the legacy spec identity: %+v", svc)
	}
	if svc.Latency.Count != 24 || svc.Latency.P99 <= 0 || svc.Latency.P50 > svc.Latency.Max {
		t.Fatalf("incoherent latency summary: %+v", svc.Latency)
	}
	// 24 jobs over a 4-seed pool: duplicates must have coalesced.
	if svc.MemoHitRate < 0.25 {
		t.Fatalf("memo hit rate %.2f implausibly low for duplicated load", svc.MemoHitRate)
	}
	load := res.Load
	if load == nil || load.Spec != "legacy-quick" || load.SpecID != svc.SpecID {
		t.Fatalf("load section missing or misstamped: %+v", load)
	}
	lc, ok := load.Classes["legacy"]
	if !ok || lc.Jobs != 24 || lc.Latency.Count != 24 || lc.Latency.Max <= 0 {
		t.Fatalf("legacy SLO class missing or empty: %+v", load.Classes)
	}
	// Round-trip through disk and self-compare: no regression vs self.
	path := filepath.Join(t.TempDir(), "BENCH_now.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	again, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	regs, warns, err := Compare(res, again, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || len(warns) != 0 {
		t.Fatalf("self-comparison regressed: %v / %v", regs, warns)
	}
}

// satPoint builds a result carrying only a saturation section (plus the
// base sim/service sections point() provides).
func satPoint(offered, goodput, p99ms float64) *Result {
	r := point(1e6, 10, 50)
	r.Saturation = &SaturationPoint{
		Spec: "sweep-smoke", SpecID: "aaaaaaaaaaaaaaaa", Seed: 42, Target: "daemon",
		KneeFound: true, KneeStep: 1, KneeReason: "goodput_slope",
		KneeOfferedPerSec: offered, KneeGoodputPerSec: goodput, KneeP99Ms: p99ms,
	}
	return r
}

// TestCompareSaturationSection: the saturation section follows the same
// additive-schema contract as load — warn-and-skip when one side lacks
// it, identity-gate when both have it, knee metrics as regressions.
func TestCompareSaturationSection(t *testing.T) {
	// Old point predates the section: warning, never a regression.
	old := point(1e6, 10, 50)
	cur := satPoint(40, 38, 120)
	regs, warns, err := Compare(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("additive saturation section misread as regression: %v", regs)
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "predates the saturation section") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing predates warning: %v", warns)
	}

	// Same sweep identity: a knee collapse is a regression on every axis.
	oldSat := satPoint(40, 38, 120)
	worse := satPoint(20, 15, 400)
	regs, warns, err = Compare(oldSat, worse, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("matching sweep identities should not warn: %v", warns)
	}
	for _, metric := range []string{"knee_offered_per_sec", "knee_goodput_per_sec", "knee_p99_ms"} {
		found := false
		for _, r := range regs {
			if strings.Contains(r, metric) {
				found = true
			}
		}
		if !found {
			t.Fatalf("knee metric %s regression not detected: %v", metric, regs)
		}
	}

	// Different sweep spec: warn and skip, even with a huge delta.
	other := satPoint(1, 1, 9999)
	other.Saturation.SpecID = "bbbbbbbbbbbbbbbb"
	regs, warns, err = Compare(oldSat, other, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if strings.Contains(r, "saturation") {
			t.Fatalf("cross-spec saturation sections were diffed: %v", regs)
		}
	}
	found = false
	for _, w := range warns {
		if strings.Contains(w, "different sweeps") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing sweep-identity warning: %v", warns)
	}

	// A knee that vanishes under the same sweep is itself a regression.
	noKnee := satPoint(40, 38, 120)
	noKnee.Saturation.KneeFound = false
	regs, _, err = Compare(oldSat, noKnee, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, r := range regs {
		if strings.Contains(r, "found none") {
			found = true
		}
	}
	if !found {
		t.Fatalf("vanished knee not detected: %v", regs)
	}
}

// TestRunSweepPhaseEndToEnd runs the sweep-smoke shape: LoadOnly +
// SweepSpec replaces the load phase with the saturation ladder, and the
// knee must be found — against the loopback daemon Run boots, and
// against an externally booted daemon named by URL. The model knobs are
// pinned slow (one server, few cycles/sec) so the top rungs always
// overrun capacity regardless of the calibrated workload cost.
func TestRunSweepPhaseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	spec := (&saturate.SweepSpec{
		Version: saturate.SweepVersion,
		Name:    "bench-sweep",
		Seed:    9,
		Cohorts: []workspec.Cohort{
			{Name: "hot", SLOClass: "interactive", Requests: 1,
				Size: workspec.Size{Workload: "bfs", Policy: "static", Scale: 16, SMs: 1}},
		},
		Ladder: saturate.Ladder{StartRatePerSec: 4, Factor: 4, Steps: 3, SettleSec: 0.2, MeasureSec: 1},
		Model:  saturate.Model{Servers: 1, CyclesPerSec: 50_000},
	}).WithDefaults()

	svc, err := service.New(service.Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Close()
	ext := httptest.NewServer(service.Handler(svc))
	defer ext.Close()

	for _, tc := range []struct {
		name, url, target string
	}{
		{"loopback", "", "daemon"},
		{"external", ext.URL, ext.URL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Options{LoadOnly: true, SweepSpec: spec, URL: tc.url, Compress: 20})
			if err != nil {
				t.Fatal(err)
			}
			if res.Load != nil || res.Service != nil {
				t.Fatal("sweep-only run still produced a load phase")
			}
			sat := res.Saturation
			if sat == nil {
				t.Fatal("no saturation section")
			}
			if sat.Target != tc.target || sat.Spec != "bench-sweep" || sat.SpecID == "" {
				t.Fatalf("saturation point misstamped: %+v", sat)
			}
			if !sat.KneeFound {
				t.Fatalf("no knee across the ladder: %+v", sat.Steps)
			}
			if sat.KneeOfferedPerSec <= 0 || sat.KneeP99Ms <= 0 || len(sat.Steps) != 3 {
				t.Fatalf("degenerate knee: %+v", sat)
			}
			for _, s := range sat.Steps {
				if s.Classes["interactive"] == nil || s.Classes["interactive"].Count == 0 {
					t.Fatalf("step %d missing per-class breakdown", s.Step)
				}
			}
		})
	}
}

// TestRunRejectsRetargetWithoutSweep: Fleet and URL only retarget the
// sweep phase, so Run refuses them without a SweepSpec (and together)
// before booting anything.
func TestRunRejectsRetargetWithoutSweep(t *testing.T) {
	spec := &saturate.SweepSpec{Name: "unused"}
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"fleet without sweep", Options{LoadOnly: true, Fleet: true}},
		{"url without sweep", Options{LoadOnly: true, URL: "http://127.0.0.1:1"}},
		{"fleet and url", Options{LoadOnly: true, Fleet: true, URL: "http://127.0.0.1:1", SweepSpec: spec}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := Run(tc.o); err == nil {
				t.Fatalf("Run accepted %+v: %+v", tc.o, res)
			}
		})
	}
}
