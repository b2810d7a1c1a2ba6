package hypo

import (
	"errors"
	"strings"
	"testing"

	"regmutex/internal/specfile"
)

const validPareto = `
version: 1
name: t1
title: a title
hypothesis: "a claim"
matrix:
  policies: [static, regmutex]
  workloads: [bfs]
seeds: [42]
metrics: [cycles, avg_occupancy_warps]
compare:
  type: pareto
  objectives:
    - metric: cycles
      goal: min
    - metric: avg_occupancy_warps
      goal: max
  expect_frontier:
    - policy=regmutex
`

func TestParseValidSpec(t *testing.T) {
	s, err := Parse([]byte(validPareto))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// Defaults fill in.
	if got := s.Matrix.Machines; len(got) != 1 || got[0] != MachineGTX480 {
		t.Fatalf("machines default = %v", got)
	}
	if got := s.Matrix.Scales; len(got) != 1 || got[0] != 1 {
		t.Fatalf("scales default = %v", got)
	}
	if got := s.Compare.Within; len(got) != 1 || got[0] != "workload" {
		t.Fatalf("within default = %v", got)
	}
	cells, err := s.expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
}

func TestParseJSONAgreesWithYAML(t *testing.T) {
	j := `{
  "version": 1, "name": "t1", "title": "a title", "hypothesis": "a claim",
  "matrix": {"policies": ["static", "regmutex"], "workloads": ["bfs"]},
  "seeds": [42], "metrics": ["cycles", "avg_occupancy_warps"],
  "compare": {"type": "pareto",
    "objectives": [{"metric": "cycles", "goal": "min"},
                   {"metric": "avg_occupancy_warps", "goal": "max"}],
    "expect_frontier": ["policy=regmutex"]}
}`
	a, err := Parse([]byte(validPareto))
	if err != nil {
		t.Fatalf("yaml: %v", err)
	}
	b, err := Parse([]byte(j))
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	ca, _ := a.expand()
	cb, _ := b.expand()
	if len(ca) != len(cb) {
		t.Fatalf("cell counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cell %d differs: %+v vs %+v", i, ca[i], cb[i])
		}
	}
}

// TestValidateRejects sweeps one-line corruptions of a valid spec and
// asserts each is rejected with a path-addressed message.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"bad version", func(s *Spec) { s.Version = 2 }, "version"},
		{"no name", func(s *Spec) { s.Name = "" }, "name: required"},
		{"unknown policy", func(s *Spec) { s.Matrix.Policies = []string{"greedy"} }, `unknown policy "greedy"`},
		{"unknown workload", func(s *Spec) { s.Matrix.Workloads = []string{"doom"} }, `unknown workload "doom"`},
		{"unknown machine", func(s *Spec) { s.Matrix.Machines = []string{"h100"} }, `unknown machine "h100"`},
		{"no seeds", func(s *Spec) { s.Seeds = nil }, "seeds"},
		{"unknown metric", func(s *Spec) { s.Metrics = []string{"vibes"} }, `unknown metric "vibes"`},
		{"dup metric", func(s *Spec) { s.Metrics = []string{"cycles", "cycles"} }, "duplicate metric"},
		{"neg scale", func(s *Spec) { s.Matrix.Scales = []int{0} }, "matrix.scales[0]"},
		{"bad exclude", func(s *Spec) { s.Matrix.Exclude = []string{"nope"} }, "matrix.exclude[0]"},
		{"one objective", func(s *Spec) { s.Compare.Objectives = s.Compare.Objectives[:1] }, "at least two objectives"},
		{"bad alpha", func(s *Spec) { s.Compare.Alpha = 1 }, "compare.alpha"},
		{"no expectations", func(s *Spec) {
			s.Compare.ExpectFrontier = nil
		}, "expect_frontier and/or expect_dominated"},
		{"unlisted compare metric", func(s *Spec) {
			s.Compare.Objectives[0].Metric = "instructions"
		}, "must also be listed under metrics"},
		{"bad selector axis", func(s *Spec) {
			s.Compare.ExpectFrontier = []string{"planet=mars"}
		}, `unknown axis "planet"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := Parse([]byte(validPareto))
			if err != nil {
				t.Fatalf("base spec: %v", err)
			}
			c.mutate(s)
			err = s.Validate()
			if err == nil {
				t.Fatal("Validate accepted the corrupted spec")
			}
			var ve *specfile.ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error type %T, want *specfile.ValidationError", err)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestCompareTypeValidation(t *testing.T) {
	base := func() *Spec {
		s, err := Parse([]byte(validPareto))
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		return s
	}
	// threshold needs a known op.
	s := base()
	s.Compare = Compare{Type: CompareThreshold, Metric: "cycles", Op: "<", Value: 1}
	s.applyDefaults()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "compare.op") {
		t.Fatalf("threshold op: %v", err)
	}
	// regression needs both selectors.
	s = base()
	s.Compare = Compare{Type: CompareRegression, Metric: "cycles"}
	s.applyDefaults()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "compare.candidate") {
		t.Fatalf("regression selectors: %v", err)
	}
	// equivalence validates the axis.
	s = base()
	s.Compare = Compare{Type: CompareEquivalence, Metric: "cycles", Over: "flavor"}
	s.applyDefaults()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "compare.over") {
		t.Fatalf("equivalence axis: %v", err)
	}
	// unknown type.
	s = base()
	s.Compare = Compare{Type: "bake-off"}
	s.applyDefaults()
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "compare.type") {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestExpandExclude(t *testing.T) {
	s, err := Parse([]byte(validPareto))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s.Matrix.Machines = []string{MachineGTX480, MachineGTX480Half}
	s.Matrix.Exclude = []string{"machine=gtx480,policy=regmutex"}
	cells, err := s.expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3 (4 minus 1 excluded)", len(cells))
	}
	for _, c := range cells {
		if c.Policy == "regmutex" && c.Machine == MachineGTX480 {
			t.Fatalf("excluded cell survived: %+v", c)
		}
	}
	// Excluding everything is an error, not an empty run.
	s.Matrix.Exclude = []string{"workload=bfs"}
	if _, err := s.expand(); err == nil {
		t.Fatal("expand accepted a zero-cell matrix")
	}
}

func TestSelectorParsing(t *testing.T) {
	sel, err := parseSelector("policy=regmutex, sms=2")
	if err != nil {
		t.Fatalf("parseSelector: %v", err)
	}
	c := Cell{Policy: "regmutex", Workload: "bfs", Machine: MachineGTX480, SMs: 2, Scale: 1}
	if !sel.matches(c) {
		t.Fatal("selector should match")
	}
	c.SMs = 4
	if sel.matches(c) {
		t.Fatal("selector should not match sms=4")
	}
	for _, bad := range []string{"", "policy", "=x", "policy=", "policy=a,policy=b"} {
		if _, err := parseSelector(bad); err == nil {
			t.Fatalf("parseSelector(%q) accepted", bad)
		}
	}
}

func TestCellLabel(t *testing.T) {
	c := Cell{Policy: "static", Workload: "bfs", Machine: MachineGTX480, Scale: 1}
	want := "policy=static workload=bfs machine=gtx480 scale=1"
	if got := c.Label(); got != want {
		t.Fatalf("Label() = %q, want %q", got, want)
	}
	c.SMs, c.GlobalLatency = 4, 800
	if got := c.Label(); !strings.Contains(got, "sms=4") || !strings.Contains(got, "global_latency=800") {
		t.Fatalf("Label() = %q missing optional knobs", got)
	}
}
