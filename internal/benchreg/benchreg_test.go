package benchreg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regmutex/internal/saturate"
	"regmutex/internal/service"
	"regmutex/internal/workspec"
)

// fixtureScript stands in for perfbench/run.sh: it prints a summary
// line naming its arguments, then the canned result line for the
// workload ($2) that the test wrote next to it.
const fixtureScript = `echo "fixture summary: $*"
cat "$2.json"
`

// fixture writes a benchmark definition with two workloads and two
// end-to-end metrics (bound 0.25 each) whose command echoes canned
// result lines, and returns it loaded.
func fixture(t *testing.T) *Definition {
	t.Helper()
	dir := t.TempDir()
	def := `{
  "command": ["sh", "fixture.sh"],
  "run_seconds": 2,
  "workloads": [{"name": "sim-static"}, {"name": "serve-mix"}],
  "end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}
  ]
}`
	for name, data := range map[string]string{"BENCHMARK.json": def, "fixture.sh": fixtureScript} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ReadDefinition(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// canned is one workload's result line.
type canned struct {
	correct        bool
	failed         int
	tput, p90, p50 float64
}

func (c canned) line() string {
	return fmt.Sprintf(`{"correct":%v,"attempted":100,"failed":%d,"metrics":{`+
		`"throughput_per_s":{"value":%g,"unit":"1/s"},"latency_p50_ms":{"value":%g,"unit":"ms"},"latency_p90_ms":{"value":%g,"unit":"ms"}}}`,
		c.correct, c.failed, c.tput, c.p50, c.p90)
}

func good(tput, p90 float64) canned { return canned{correct: true, tput: tput, p90: p90, p50: p90 / 2} }

// runFixture makes the fixture command print lines, runs the benchmark
// through RunPerf and returns the point and everything the command sent
// to stderr.
func runFixture(t *testing.T, def *Definition, lines map[string]canned) (*Result, string, error) {
	t.Helper()
	for name, c := range lines {
		if err := os.WriteFile(filepath.Join(def.Dir, name+".json"), []byte(c.line()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stderr bytes.Buffer
	res, err := RunPerf(def, &stderr)
	return res, stderr.String(), err
}

// perfPoint runs the fixture with every workload reporting tput and p90.
func perfPoint(t *testing.T, def *Definition, tput, p90 float64) *Result {
	t.Helper()
	res, _, err := runFixture(t, def, map[string]canned{"sim-static": good(tput, p90), "serve-mix": good(tput/10, p90*10)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hasMatch(list []string, sub string) bool {
	for _, s := range list {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestReadDefinitionOfTheRepo: the committed BENCHMARK.json loads, and
// every end-to-end metric carries a direction and a bound.
func TestReadDefinitionOfTheRepo(t *testing.T) {
	def, err := ReadDefinition("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if def.Dir != "../.." || len(def.Workloads) == 0 || len(def.EndToEnd) == 0 {
		t.Fatalf("definition read incompletely: %+v", def)
	}
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 {
			t.Errorf("metric %s has no bound", m.Name)
		}
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, []byte(`{"command":["x"],"run_seconds":1,"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"up","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDefinition(bad); err == nil {
		t.Fatal("definition with an unknown direction accepted")
	}
}

// TestRunPerfRecordsResultLines: each workload runs the command with
// the definition's arguments, its summary lines reach stderr, and its
// result line lands in the perf section under the workload's name.
func TestRunPerfRecordsResultLines(t *testing.T) {
	def := fixture(t)
	res, stderr, err := runFixture(t, def, map[string]canned{"sim-static": good(12, 90), "serve-mix": good(30, 40)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fixture summary: --workload sim-static --seed 1 --seconds 2 --trace 0",
		"fixture summary: --workload serve-mix --seed 1 --seconds 2 --trace 0",
	} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("summary line %q not passed through; stderr:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, `"correct"`) {
		t.Fatalf("result line leaked to stderr:\n%s", stderr)
	}
	if res.SchemaVersion != SchemaVersion || res.Date == "" || res.GoVersion == "" || len(res.Perf) != 2 {
		t.Fatalf("incomplete point: %+v", res)
	}
	p := res.Perf["sim-static"]
	if !p.Correct || p.Attempted != 100 || p.Metrics["throughput_per_s"].Value != 12 || p.Metrics["latency_p90_ms"].Unit != "ms" {
		t.Fatalf("result line misread: %+v", p)
	}
}

// TestRunPerfRejectsIncorrectRun: a workload that reports correct:
// false, or any failed op, fails the run (benchreg exits 1).
func TestRunPerfRejectsIncorrectRun(t *testing.T) {
	def := fixture(t)
	for _, bad := range []canned{
		{correct: false, tput: 12, p90: 90},
		{correct: true, failed: 2, tput: 12, p90: 90},
	} {
		_, _, err := runFixture(t, def, map[string]canned{"sim-static": good(12, 90), "serve-mix": bad})
		if err == nil || !strings.Contains(err.Error(), "serve-mix") {
			t.Fatalf("run with %+v accepted: %v", bad, err)
		}
	}
	if err := os.WriteFile(filepath.Join(def.Dir, "sim-static.json"), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunPerf(def, &bytes.Buffer{}); err == nil {
		t.Fatal("garbled result line accepted")
	}
}

func TestCompareCleanPass(t *testing.T) {
	def := fixture(t)
	old := perfPoint(t, def, 10, 100)
	// Moves inside the 25% bound, in the bad direction: 20% slower,
	// 20% higher p90.
	cur := perfPoint(t, def, 8, 120)
	regs, warns, err := Compare(old, cur, def, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || len(warns) != 0 {
		t.Fatalf("moves within bound flagged: %v / %v", regs, warns)
	}
}

func TestCompareDetectsInjectedRegressions(t *testing.T) {
	def := fixture(t)
	old := perfPoint(t, def, 10, 100)

	// Throughput 30% down: beyond the 25% bound, on every workload.
	regs, _, err := Compare(old, perfPoint(t, def, 7, 100), def, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || !hasMatch(regs, "perf sim-static throughput_per_s") || !hasMatch(regs, "budget 25%") {
		t.Fatalf("throughput drop not detected: %v", regs)
	}
	// A looser -threshold widens the budget past the bound.
	if regs, _, _ := Compare(old, perfPoint(t, def, 7, 100), def, 0.75); len(regs) != 0 {
		t.Fatalf("threshold 0.75 did not widen the budget: %v", regs)
	}

	// p90 30% up.
	regs, _, err = Compare(old, perfPoint(t, def, 10, 130), def, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(regs, "perf sim-static latency_p90_ms") {
		t.Fatalf("latency rise not detected: %v", regs)
	}

	// A workload or a metric silently vanishing.
	gone := perfPoint(t, def, 10, 100)
	delete(gone.Perf, "serve-mix")
	delete(gone.Perf["sim-static"].Metrics, "latency_p50_ms")
	regs, _, err = Compare(old, gone, def, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(regs, "perf serve-mix: workload missing") || !hasMatch(regs, "perf sim-static latency_p50_ms: metric missing") {
		t.Fatalf("vanished workload or metric not detected: %v", regs)
	}

	// More failed ops than before.
	failing := perfPoint(t, def, 10, 100)
	p := failing.Perf["sim-static"]
	p.Failed = 1
	failing.Perf["sim-static"] = p
	regs, _, err = Compare(old, failing, def, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(regs, "perf sim-static failed: 0 -> 1") {
		t.Fatalf("failed-op rise not detected: %v", regs)
	}

	// The whole section vanishing.
	regs, _, err = Compare(old, &Result{SchemaVersion: SchemaVersion}, def, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(regs, "perf section missing") {
		t.Fatalf("vanished perf section not detected: %v", regs)
	}
}

// TestCompareForwardCompatibleSchema: the committed pre-perf point
// (BENCH_2026-08-07.json: sim and service sections only) compares
// against a perf point with a warning, never a regression or an error.
func TestCompareForwardCompatibleSchema(t *testing.T) {
	def := fixture(t)
	old, err := ReadFile("../../BENCH_2026-08-07.json")
	if err != nil {
		t.Fatal(err)
	}
	regs, warns, err := Compare(old, perfPoint(t, def, 10, 100), def, 0.10)
	if err != nil {
		t.Fatalf("additive schema growth must not make points incomparable: %v", err)
	}
	if len(regs) != 0 {
		t.Fatalf("additive schema fields misread as regressions: %v", regs)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "predates the perf section") {
		t.Fatalf("missing old-point-predates warning, got: %v", warns)
	}
}

// loadPointFor builds a result carrying only a load section.
func loadPointFor(jobsPerSec, p99 float64, specName, specID string) *Result {
	return &Result{SchemaVersion: SchemaVersion, Load: &LoadPoint{
		Spec: specName, SpecID: specID, Seed: 1,
		Jobs: 24, JobsPerSec: jobsPerSec, MemoHitRate: 0.5,
		Classes: map[string]ClassPoint{
			"interactive": {Jobs: 24, Coalesced: 12, Latency: Quantiles{Count: 24, P50: p99 / 2, P99: p99, Max: p99 * 1.5}},
		},
	}}
}

// TestCompareSpecIdentityGating: load sections measured under
// different workload specs are warned about and skipped, not diffed.
func TestCompareSpecIdentityGating(t *testing.T) {
	old := loadPointFor(10, 50, "bursty-mix", "1111111111111111")
	// Same spec identity: a latency blowup in a class is a regression.
	regs, warns, err := Compare(old, loadPointFor(10, 200, "bursty-mix", "1111111111111111"), nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("matching identities should not warn: %v", warns)
	}
	if !hasMatch(regs, "load interactive latency_p99_ms") {
		t.Fatalf("per-class latency regression not detected: %v", regs)
	}

	// Different spec: even a huge delta is not comparable — warn + skip.
	regs, warns, err = Compare(old, loadPointFor(1, 5000, "other-spec", "2222222222222222"), nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || !hasMatch(warns, "different workload specs") {
		t.Fatalf("cross-spec sections were diffed: %v / %v", regs, warns)
	}

	// A vanished SLO class under the SAME spec is a regression.
	gone := loadPointFor(10, 50, "bursty-mix", "1111111111111111")
	gone.Load.Classes = map[string]ClassPoint{}
	regs, _, err = Compare(old, gone, nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(regs, `slo class "interactive" missing`) {
		t.Fatalf("vanished SLO class not detected: %v", regs)
	}
}

func TestCompareRefusesIncomparable(t *testing.T) {
	def := fixture(t)
	old := perfPoint(t, def, 10, 100)
	newer := perfPoint(t, def, 10, 100)
	newer.SchemaVersion = SchemaVersion + 1
	if _, _, err := Compare(old, newer, def, 0.10); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if _, _, err := Compare(old, old, nil, 0.10); err == nil {
		t.Fatal("perf sections compared without a benchmark definition")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	old := perfPoint(t, fixture(t), 10, 100)
	old.Load = loadPointFor(10, 50, "load-smoke", "00000000deadbeef").Load
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Perf) != 2 || got.Perf["sim-static"].Metrics["throughput_per_s"].Value != 10 {
		t.Fatalf("perf section mangled in round trip: %+v", got.Perf)
	}
	if got.Load == nil || got.Load.SpecID != "00000000deadbeef" || got.Load.Classes["interactive"].Jobs != 24 {
		t.Fatalf("load section mangled in round trip: %+v", got.Load)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil || raw["perf"] == nil {
		t.Fatalf("file lacks a perf key: %v", err)
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

// TestDefaultPathRefusesExistingPoint: today's default point is refused
// once it exists, so a second run on the same day cannot overwrite it.
func TestDefaultPathRefusesExistingPoint(t *testing.T) {
	dir := t.TempDir()
	path, err := DefaultPath(dir)
	if err != nil || path != filepath.Join(dir, DefaultFilename()) {
		t.Fatalf("DefaultPath on an empty dir = %q, %v", path, err)
	}
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DefaultPath(dir); err == nil || !strings.Contains(err.Error(), DefaultFilename()) {
		t.Fatalf("DefaultPath over an existing point: err %v, want one naming %s", err, DefaultFilename())
	}
}

// TestRunLoadPhaseEndToEnd runs the `make load-smoke` spec through the
// loopback daemon and checks the load section is coherent: stamped with
// the spec identity, one populated entry per SLO class, and equal to
// itself after a trip through disk.
func TestRunLoadPhaseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	spec, err := workspec.ParseFile("../../examples/workloads/load-smoke.yaml")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != SchemaVersion || res.Date == "" || res.GoVersion == "" || res.Perf != nil || res.Saturation != nil {
		t.Fatalf("load run misstamped or ran another phase: %+v", res)
	}
	load := res.Load
	if load == nil || load.Spec != "load-smoke" || load.SpecID != spec.Identity() || load.Jobs != 12 || load.JobsPerSec <= 0 {
		t.Fatalf("load section missing or misstamped: %+v", load)
	}
	for _, class := range []string{"interactive", "batch"} {
		c, ok := load.Classes[class]
		if !ok || c.Jobs != 6 || c.Failed != 0 || c.Latency.Count != 6 || c.Latency.P99 <= 0 || c.Latency.P50 > c.Latency.Max {
			t.Fatalf("slo class %s missing or incoherent: %+v", class, load.Classes)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_now.json")
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	again, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	regs, warns, err := Compare(res, again, nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || len(warns) != 0 {
		t.Fatalf("self-comparison regressed: %v / %v", regs, warns)
	}
}

// satPoint builds a result carrying only a saturation section.
func satPoint(offered, goodput, p99ms float64) *Result {
	return &Result{SchemaVersion: SchemaVersion, Saturation: &SaturationPoint{
		Spec: "sweep-smoke", SpecID: "aaaaaaaaaaaaaaaa", Seed: 42, Target: "daemon",
		KneeFound: true, KneeStep: 1, KneeReason: "goodput_slope",
		KneeOfferedPerSec: offered, KneeGoodputPerSec: goodput, KneeP99Ms: p99ms,
	}}
}

// TestCompareSaturationSection: the saturation section follows the same
// additive-schema contract as load — warn-and-skip when one side lacks
// it, identity-gate when both have it, knee metrics as regressions.
func TestCompareSaturationSection(t *testing.T) {
	// Old point predates the section: warning, never a regression.
	regs, warns, err := Compare(&Result{SchemaVersion: SchemaVersion}, satPoint(40, 38, 120), nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("additive saturation section misread as regression: %v", regs)
	}
	if !hasMatch(warns, "predates the saturation section") {
		t.Fatalf("missing predates warning: %v", warns)
	}

	// Same sweep identity: a knee collapse is a regression on every axis.
	oldSat := satPoint(40, 38, 120)
	regs, warns, err = Compare(oldSat, satPoint(20, 15, 400), nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("matching sweep identities should not warn: %v", warns)
	}
	for _, metric := range []string{"knee_offered_per_sec", "knee_goodput_per_sec", "knee_p99_ms"} {
		if !hasMatch(regs, metric) {
			t.Fatalf("knee metric %s regression not detected: %v", metric, regs)
		}
	}

	// Different sweep spec: warn and skip, even with a huge delta.
	other := satPoint(1, 1, 9999)
	other.Saturation.SpecID = "bbbbbbbbbbbbbbbb"
	regs, warns, err = Compare(oldSat, other, nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if hasMatch(regs, "saturation") {
		t.Fatalf("cross-spec saturation sections were diffed: %v", regs)
	}
	if !hasMatch(warns, "different sweeps") {
		t.Fatalf("missing sweep-identity warning: %v", warns)
	}

	// A knee that vanishes under the same sweep is itself a regression.
	noKnee := satPoint(40, 38, 120)
	noKnee.Saturation.KneeFound = false
	regs, _, err = Compare(oldSat, noKnee, nil, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !hasMatch(regs, "found none") {
		t.Fatalf("vanished knee not detected: %v", regs)
	}
}

// TestRunSweepPhaseEndToEnd runs the sweep-smoke shape: a SweepSpec
// runs the saturation ladder and nothing else, and the knee must be
// found — against the loopback daemon Run boots, and against an
// externally booted daemon named by URL. The model knobs are pinned
// slow (one server, few cycles/sec) so the top rungs always overrun
// capacity regardless of the calibrated workload cost.
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
			res, err := Run(Options{SweepSpec: spec, URL: tc.url, Compress: 20})
			if err != nil {
				t.Fatal(err)
			}
			if res.Load != nil || res.Perf != nil {
				t.Fatal("sweep run still produced another section")
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
	load := &workspec.Spec{Name: "unused"}
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"fleet without sweep", Options{Spec: load, Fleet: true}},
		{"url without sweep", Options{Spec: load, URL: "http://127.0.0.1:1"}},
		{"fleet and url", Options{Fleet: true, URL: "http://127.0.0.1:1", SweepSpec: spec}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := Run(tc.o); err == nil {
				t.Fatalf("Run accepted %+v: %+v", tc.o, res)
			}
		})
	}
}

// TestRunNeedsExactlyOnePhase: a load spec and a sweep are separate
// runs, and a run with neither has nothing to do.
func TestRunNeedsExactlyOnePhase(t *testing.T) {
	for _, o := range []Options{
		{Spec: &workspec.Spec{Name: "unused"}, SweepSpec: &saturate.SweepSpec{Name: "unused"}},
		{},
	} {
		if res, err := Run(o); err == nil {
			t.Fatalf("Run accepted %+v: %+v", o, res)
		}
	}
}
