package workspec

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"regmutex/internal/service"
)

// goldenYAML exercises the whole YAML subset: nested block mappings,
// "- " sequence items, flow lists, quoted strings, comments, floats.
const goldenYAML = `
# golden spec
version: 1
name: golden        # trailing comment
seed: 99
cohorts:
  - name: web
    slo_class: "critical"
    requests: 5
    arrival:
      process: poisson
      rate_per_sec: 12.5
    size:
      workloads:
        - name: bfs
          weight: 3
        - name: sad
      policy: static
      scales: [4, 8]
      sms: 2
      seed_pool: 2
  - name: batch
    slo_class: 'batch'
    requests: 3
    arrival:
      process: diurnal
      period_sec: 2
      rates_per_sec: [1, 10, 3]
    size:
      workload: sad
      policy: regmutex
      scale: 8
      sms: 2
      priority: -1
`

func goldenSpec() *Spec {
	return &Spec{
		Version: 1,
		Name:    "golden",
		Seed:    99,
		Cohorts: []Cohort{
			{
				Name: "web", SLOClass: "critical", Requests: 5,
				Arrival: Arrival{Process: ProcessPoisson, RatePerSec: 12.5},
				Size: Size{
					Workloads: []WeightedChoice{{Name: "bfs", Weight: 3}, {Name: "sad"}},
					Policy:    "static",
					Scales:    []int{4, 8},
					SMs:       2,
					SeedPool:  2,
				},
			},
			{
				Name: "batch", SLOClass: "batch", Requests: 3,
				Arrival: Arrival{Process: ProcessDiurnal, PeriodSec: 2, RatesPerSec: []float64{1, 10, 3}},
				Size:    Size{Workload: "sad", Policy: "regmutex", Scale: 8, SMs: 2, Priority: -1},
			},
		},
	}
}

func TestParseYAMLGolden(t *testing.T) {
	got, err := Parse([]byte(goldenYAML))
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed spec mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseJSONEquivalent(t *testing.T) {
	jsonSpec := `{
	  "version": 1, "name": "golden", "seed": 99,
	  "cohorts": [
	    {"name": "web", "slo_class": "critical", "requests": 5,
	     "arrival": {"process": "poisson", "rate_per_sec": 12.5},
	     "size": {"workloads": [{"name": "bfs", "weight": 3}, {"name": "sad"}],
	              "policy": "static", "scales": [4, 8], "sms": 2, "seed_pool": 2}},
	    {"name": "batch", "slo_class": "batch", "requests": 3,
	     "arrival": {"process": "diurnal", "period_sec": 2, "rates_per_sec": [1, 10, 3]},
	     "size": {"workload": "sad", "policy": "regmutex", "scale": 8, "sms": 2, "priority": -1}}
	  ]
	}`
	fromJSON, err := Parse([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	fromYAML, err := Parse([]byte(goldenYAML))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fromYAML) {
		t.Fatalf("JSON and YAML forms disagree:\n json %+v\n yaml %+v", fromJSON, fromYAML)
	}
	if fromJSON.Identity() != fromYAML.Identity() {
		t.Fatalf("identities differ: %s vs %s", fromJSON.Identity(), fromYAML.Identity())
	}
}

// TestParseRejects pins the typed-error contract: syntax problems are
// *ParseError (with a line when known), semantic problems are
// *ValidationError whose SpecErrors carry dotted paths.
func TestParseRejects(t *testing.T) {
	syntax := []struct {
		name, in, want string
		wantLine       bool
	}{
		{"empty", "   \n# only a comment\n", "empty spec", false},
		{"tab indent", "version: 1\n\tname: x\n", "tabs", true},
		{"unknown field", "version: 1\nname: x\nturbo: 9\ncohorts:\n  - name: a\n    slo_class: s\n    requests: 1\n    arrival:\n      process: asap\n    size:\n      workload: bfs\n", "unknown field", false},
		{"duplicate key", "version: 1\nversion: 2\n", "duplicate key", true},
		{"unterminated flow list", "version: 1\nname: x\ncohorts:\n  - name: a\n    slo_class: s\n    requests: 1\n    arrival:\n      process: diurnal\n      period_sec: 1\n      rates_per_sec: [1, 2\n    size:\n      workload: bfs\n", "unterminated flow list", true},
		{"bad json", "{not json", "bad JSON", false},
		{"scalar where mapping expected", "version: 1\njust a scalar line\n", "key: value", true},
	}
	for _, tc := range syntax {
		t.Run("syntax/"+tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ParseError", err)
			}
			if !strings.Contains(pe.Msg, tc.want) {
				t.Fatalf("msg %q does not mention %q", pe.Msg, tc.want)
			}
			if tc.wantLine && pe.Line <= 0 {
				t.Fatalf("expected a source line, got %+v", pe)
			}
		})
	}

	semantic := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"wrong version", func(s *Spec) { s.Version = 2 }, "version"},
		{"missing name", func(s *Spec) { s.Name = "" }, "name"},
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "cohorts"},
		{"duplicate cohort", func(s *Spec) { s.Cohorts[1].Name = "web" }, "cohorts[1].name"},
		{"zero requests", func(s *Spec) { s.Cohorts[0].Requests = 0 }, "cohorts[0].requests"},
		{"missing slo class", func(s *Spec) { s.Cohorts[0].SLOClass = "" }, "cohorts[0].slo_class"},
		{"unknown process", func(s *Spec) { s.Cohorts[0].Arrival = Arrival{Process: "fractal"} }, "cohorts[0].arrival.process"},
		{"poisson without rate", func(s *Spec) { s.Cohorts[0].Arrival = Arrival{Process: ProcessPoisson} }, "cohorts[0].arrival.rate_per_sec"},
		{"diurnal all zero", func(s *Spec) {
			s.Cohorts[0].Arrival = Arrival{Process: ProcessDiurnal, PeriodSec: 1, RatesPerSec: []float64{0, 0}}
		}, "cohorts[0].arrival.rates_per_sec"},
		{"burst without size", func(s *Spec) { s.Cohorts[0].Arrival = Arrival{Process: ProcessBurst, IntervalSec: 1} }, "cohorts[0].arrival.burst_size"},
		{"workload and workloads", func(s *Spec) { s.Cohorts[0].Size.Workload = "bfs" }, "cohorts[0].size"},
		{"neither workload", func(s *Spec) { s.Cohorts[1].Size.Workload = "" }, "cohorts[1].size"},
		{"unknown workload", func(s *Spec) { s.Cohorts[1].Size.Workload = "raytrace" }, "cohorts[1].size.workload"},
		{"unknown policy", func(s *Spec) { s.Cohorts[1].Size.Policy = "greedy" }, "cohorts[1].size.policy"},
		{"negative seed pool", func(s *Spec) { s.Cohorts[0].Size.SeedPool = -1 }, "cohorts[0].size.seed_pool"},
	}
	for _, tc := range semantic {
		t.Run("semantic/"+tc.name, func(t *testing.T) {
			s := goldenSpec()
			tc.mutate(s)
			err := s.Validate()
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v, want *ValidationError", err)
			}
			for _, se := range ve.Errs {
				if se.Path == tc.wantPath {
					return
				}
			}
			t.Fatalf("no SpecError at path %q in %v", tc.wantPath, err)
		})
	}
}

// TestValidationReportsAllProblems: a rejected spec names every
// violation in one pass, not just the first.
func TestValidationReportsAllProblems(t *testing.T) {
	s := goldenSpec()
	s.Version = 3
	s.Cohorts[0].Requests = -1
	s.Cohorts[1].Size.Workload = "nope"
	var ve *ValidationError
	if err := s.Validate(); !errors.As(err, &ve) || len(ve.Errs) != 3 {
		t.Fatalf("want 3 aggregated findings, got %v", err)
	}
}

// TestCompileDeterministic: same spec + seed compiles to byte-identical
// schedules, and each cohort's stream is independent — removing one
// cohort leaves the others' arrivals and request draws untouched.
func TestCompileDeterministic(t *testing.T) {
	spec, err := ParseFile("../../examples/workloads/bursty-mix.yaml")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatal("same spec+seed compiled to different schedules")
	}
	if a.SpecID != spec.Identity() || a.Seed != spec.Seed || a.SpecName != spec.Name {
		t.Fatalf("schedule identity not stamped: %s/%s/%d", a.SpecName, a.SpecID, a.Seed)
	}

	// Different seed must actually change the stochastic draws.
	reseeded := *spec
	reseeded.Seed = spec.Seed + 1
	c, err := Compile(&reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Canonical(), c.Canonical()) {
		t.Fatal("different seeds produced an identical schedule")
	}

	// Cohort-stream independence: compiling only the first cohort yields
	// the same per-item arrivals and requests that cohort had in the mix.
	solo := *spec
	solo.Cohorts = spec.Cohorts[:1]
	d, err := Compile(&solo)
	if err != nil {
		t.Fatal(err)
	}
	var mixed []Item
	for _, it := range a.Items {
		if it.Cohort == spec.Cohorts[0].Name {
			mixed = append(mixed, it)
		}
	}
	if len(mixed) != len(d.Items) {
		t.Fatalf("cohort item counts differ: %d vs %d", len(mixed), len(d.Items))
	}
	for i := range d.Items {
		if mixed[i].At != d.Items[i].At || !reflect.DeepEqual(mixed[i].Req, d.Items[i].Req) {
			t.Fatalf("item %d perturbed by sibling cohorts:\n mixed %+v\n solo  %+v", i, mixed[i], d.Items[i])
		}
	}
}

func TestArrivalShapes(t *testing.T) {
	base := Cohort{Name: "c", SLOClass: "s", Size: Size{Workload: "bfs"}}

	mk := func(n int, a Arrival) *Schedule {
		c := base
		c.Requests, c.Arrival = n, a
		sched, err := Compile(&Spec{Version: 1, Name: "shape", Seed: 5, Cohorts: []Cohort{c}})
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}

	asap := mk(4, Arrival{Process: ProcessASAP})
	for _, it := range asap.Items {
		if it.At != 0 {
			t.Fatalf("asap arrival at %v, want 0", it.At)
		}
	}

	constant := mk(4, Arrival{Process: ProcessConstant, RatePerSec: 10})
	for i, it := range constant.Items {
		if want := time.Duration(i) * 100 * time.Millisecond; it.At != want {
			t.Fatalf("constant item %d at %v, want %v", i, it.At, want)
		}
	}

	burst := mk(6, Arrival{Process: ProcessBurst, BurstSize: 3, IntervalSec: 1})
	for i, it := range burst.Items {
		if want := time.Duration(i/3) * time.Second; it.At != want {
			t.Fatalf("burst item %d at %v, want %v", i, it.At, want)
		}
	}

	for _, proc := range []Arrival{
		{Process: ProcessPoisson, RatePerSec: 100},
		{Process: ProcessDiurnal, PeriodSec: 0.5, RatesPerSec: []float64{10, 200}},
	} {
		sched := mk(20, proc)
		last := time.Duration(-1)
		for i, it := range sched.Items {
			if it.At < last {
				t.Fatalf("%s item %d went backwards: %v after %v", proc.Process, i, it.At, last)
			}
			if it.Seq != i {
				t.Fatalf("%s item %d has seq %d", proc.Process, i, it.Seq)
			}
			last = it.At
		}
		if last <= 0 {
			t.Fatalf("%s schedule never advanced past t=0", proc.Process)
		}
	}
}

// TestFingerprintIgnoresAttribution pins the identity contract the
// memo, trace, and compare layers rely on: Client, SLOClass, and
// Priority never change a request's fingerprint, result-determining
// fields do.
func TestFingerprintIgnoresAttribution(t *testing.T) {
	seed := uint64(3)
	a := service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 8, SMs: 2, Seed: &seed}
	b := a
	b.Client, b.SLOClass, b.Priority = "other", "critical", 7
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("attribution fields changed the fingerprint")
	}
	c := a
	seed2 := uint64(4)
	c.Seed = &seed2
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("input seed did not change the fingerprint")
	}
}

// TestTraceRoundTrip: a schedule recorded through TraceWriter and
// replayed via ReadTrace+FromTrace preserves the per-fingerprint job
// multiset and the SLO-class attribution.
func TestTraceRoundTrip(t *testing.T) {
	spec, err := ParseFile("../../examples/workloads/load-smoke.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	for _, it := range sched.Items {
		w.Record(it.Req)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(sched.Items) {
		t.Fatalf("recorded %d of %d", w.Count(), len(sched.Items))
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := FromTrace("replayed", recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay.Fingerprints(), sched.Fingerprints()) {
		t.Fatalf("fingerprint multiset changed in round trip:\n orig   %v\n replay %v",
			sched.Fingerprints(), replay.Fingerprints())
	}
	for i, it := range replay.Items {
		if it.SLOClass != sched.Items[i].SLOClass || it.Cohort != sched.Items[i].Cohort {
			t.Fatalf("item %d lost attribution: %s/%s vs %s/%s",
				i, it.Cohort, it.SLOClass, sched.Items[i].Cohort, sched.Items[i].SLOClass)
		}
	}
}

func TestReadTraceTornAndCorrupt(t *testing.T) {
	valid := `{"at_ms":0,"req":{"workload":"bfs"}}` + "\n"
	// A torn final line (crash mid-append) is tolerated and skipped.
	recs, err := ReadTrace(strings.NewReader(valid + valid + `{"at_ms": 7, "req":`))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// The same garbage mid-file is corruption, named by its own line
	// even when blank lines follow it.
	for _, corrupt := range []string{
		valid + "{garbage}\n" + valid,
		valid + "GARBAGE\n\n" + valid,
	} {
		_, err = ReadTrace(strings.NewReader(corrupt))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("mid-file corruption not reported as line 2: %v", err)
		}
	}
	// Offsets must not go backwards after normalization.
	back := `{"at_ms":100,"req":{"workload":"bfs"}}` + "\n" + `{"at_ms":50,"req":{"workload":"bfs"}}` + "\n"
	recs, err = ReadTrace(strings.NewReader(back))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTrace("", recs); err == nil {
		t.Fatal("backwards arrival offsets accepted")
	}
	if _, err := FromTrace("", nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestExampleSpecsParse pins the committed example specs: they must
// parse, and bursty-mix must keep the shape the docs promise (Poisson
// and diurnal cohorts, at least two SLO classes, skewed popularity).
func TestExampleSpecsParse(t *testing.T) {
	for _, name := range []string{"legacy-quick", "bursty-mix", "load-smoke"} {
		if _, err := ParseFile("../../examples/workloads/" + name + ".yaml"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	mix, err := ParseFile("../../examples/workloads/bursty-mix.yaml")
	if err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	classes := map[string]bool{}
	skewed := false
	for _, c := range mix.Cohorts {
		procs[c.Arrival.Process] = true
		classes[c.SLOClass] = true
		if len(c.Size.Workloads) > 1 {
			skewed = true
		}
	}
	if !procs[ProcessPoisson] || !procs[ProcessDiurnal] {
		t.Fatalf("bursty-mix lost its poisson+diurnal cohorts: %v", procs)
	}
	if len(classes) < 2 {
		t.Fatalf("bursty-mix needs >= 2 SLO classes, has %v", classes)
	}
	if !skewed {
		t.Fatal("bursty-mix lost its weighted workload draw")
	}
}

// TestLegacyFileMatchesBuiltin pins examples/workloads/legacy-quick.yaml
// to workspec.Legacy — the builtin benchreg runs without -spec — so the
// committed file and the code path cannot drift apart.
func TestLegacyFileMatchesBuiltin(t *testing.T) {
	fromFile, err := ParseFile("../../examples/workloads/legacy-quick.yaml")
	if err != nil {
		t.Fatal(err)
	}
	builtin := Legacy(true)
	if !reflect.DeepEqual(fromFile, builtin) {
		t.Fatalf("example file and builtin legacy spec drifted:\n file    %+v\n builtin %+v", fromFile, builtin)
	}
	if fromFile.Identity() != builtin.Identity() {
		t.Fatalf("identities differ: %s vs %s", fromFile.Identity(), builtin.Identity())
	}
	if full := Legacy(false); full.Name != "legacy" || full.TotalRequests() != 64 {
		t.Fatalf("full-mode legacy spec wrong: %+v", full)
	}
}
