package hypo

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"regmutex/internal/harness"
	"regmutex/internal/runpool"
)

// exampleDir is the shipped spec set, relative to this package.
const exampleDir = "../../examples/hypotheses"

// exampleVerdicts pins each shipped hypothesis's verdict: h4 is the
// deliberate negative control, everything else must hold. A change here
// is a change in simulator behavior, not report formatting.
var exampleVerdicts = map[string]string{
	"h1-regmutex-pareto":         VerdictConfirmed,
	"h2-occupancy-cliff":         VerdictConfirmed,
	"h3-policy-equivalence":      VerdictConfirmed,
	"h4-static-matches-regmutex": VerdictRefuted,
}

func exampleSpecs(t *testing.T) []*Spec {
	t.Helper()
	ents, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatalf("read %s: %v", exampleDir, err)
	}
	var paths []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".yaml" {
			paths = append(paths, filepath.Join(exampleDir, e.Name()))
		}
	}
	sort.Strings(paths)
	var specs []*Spec
	for _, p := range paths {
		s, err := ParseFile(p)
		if err != nil {
			t.Fatalf("ParseFile(%s): %v", p, err)
		}
		specs = append(specs, s)
	}
	if len(specs) != len(exampleVerdicts) {
		t.Fatalf("found %d example specs, want %d", len(specs), len(exampleVerdicts))
	}
	return specs
}

// TestExampleVerdicts runs every shipped example and asserts its pinned
// verdict, with zero failed runs outside the design.
func TestExampleVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full example matrices")
	}
	pool := runpool.New(0)
	for _, s := range exampleSpecs(t) {
		res, err := Run(s, RunOptions{Pool: pool})
		if err != nil {
			t.Fatalf("%s: Run: %v", s.Name, err)
		}
		want, ok := exampleVerdicts[s.Name]
		if !ok {
			t.Fatalf("unpinned example %q — add it to exampleVerdicts", s.Name)
		}
		if res.Verdict != want {
			t.Errorf("%s: verdict = %s, want %s\nanalysis: %+v", s.Name, res.Verdict, want, res.Analysis)
		}
		if res.FailedRuns != 0 {
			t.Errorf("%s: %d failed runs", s.Name, res.FailedRuns)
		}
	}
}

// TestExampleReportsDeterministic renders one example's Markdown and
// JSON reports from a serial run and a parallel run on fresh pools and
// requires byte equality — the determinism contract of DESIGN.md §14.
func TestExampleReportsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the example matrix twice")
	}
	spec, err := ParseFile(filepath.Join(exampleDir, "h1-regmutex-pareto.yaml"))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	render := func(ro RunOptions) (md, js []byte) {
		res, err := Run(spec, ro)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var m, j bytes.Buffer
		if err := WriteFindings(&m, res); err != nil {
			t.Fatalf("WriteFindings: %v", err)
		}
		if err := WriteJSON(&j, res); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return m.Bytes(), j.Bytes()
	}
	serialMD, serialJS := render(RunOptions{Jobs: 1, Par: 1})
	parMD, parJS := render(RunOptions{Jobs: 8, Par: 4})
	if !bytes.Equal(serialMD, parMD) {
		t.Error("FINDINGS.md differs between -j 1 -par 1 and -j 8 -par 4")
	}
	if !bytes.Equal(serialJS, parJS) {
		t.Error("report.json differs between -j 1 -par 1 and -j 8 -par 4")
	}
	// And repeated runs on a fresh pool reproduce the bytes exactly.
	againMD, _ := render(RunOptions{Jobs: 8})
	if !bytes.Equal(serialMD, againMD) {
		t.Error("FINDINGS.md differs across repeated runs")
	}
}

// TestRunUnknownWorkloadSurfacesError covers the engine's spec-level
// error path (a workload validation would normally catch; expand-time
// lookup still fails typed).
func TestRunUnknownWorkloadSurfacesError(t *testing.T) {
	s, err := Parse([]byte(validPareto))
	if err != nil {
		t.Fatal(err)
	}
	s.Matrix.Workloads = []string{"not-a-workload"} // bypasses Validate on purpose
	if _, err := Run(s, RunOptions{Jobs: 1}); err == nil {
		t.Fatal("Run accepted an unknown workload")
	}
	// And SubmitNamed rejects unknown policies with the typed error.
	s.Matrix.Workloads = []string{"bfs"}
	s.Matrix.Policies = []string{"banana"}
	_, err = Run(s, RunOptions{Jobs: 1})
	var nf *harness.NotFoundError
	if !errors.As(err, &nf) || nf.Kind != "policy" {
		t.Fatalf("err = %v, want *harness.NotFoundError{Kind: policy}", err)
	}
}
