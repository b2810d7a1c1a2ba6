// Package hypo is the hypothesis-driven experiment framework: a
// versioned declarative spec names a config matrix (policy × workload ×
// machine × SM count × grid scale × timing knobs), a seed set, measured
// metrics, and a comparison type; the engine expands the matrix, runs
// every cell through the runpool at full parallelism (sharing the
// figure sweeps' memo keys), aggregates across paired seeds with
// deterministic statistics — histogram means/quantiles plus an exact
// sign-test/min-effect rule, no RNG at analysis time — and emits a
// Confirmed/Refuted/Inconclusive verdict with a byte-deterministic
// FINDINGS-style Markdown + JSON report. Same spec + seeds ⇒ identical
// reports at any -j. See DESIGN.md §14 for the grammar and the
// semantics of each comparison type.
package hypo

import (
	"fmt"
	"strconv"
	"strings"

	"regmutex/internal/harness"
	"regmutex/internal/sim"
	"regmutex/internal/specfile"
	"regmutex/internal/workloads"
)

// SpecVersion is the only spec version this revision understands.
const SpecVersion = 1

// Comparison types.
const (
	ComparePareto      = "pareto"      // dominance frontier across configs
	CompareThreshold   = "threshold"   // metric beyond/below a bound
	CompareRegression  = "regression"  // candidate vs named control with a tolerance
	CompareEquivalence = "equivalence" // all configs agree (the differential oracle, generalized)
)

// Verdict values.
const (
	VerdictConfirmed    = "Confirmed"
	VerdictRefuted      = "Refuted"
	VerdictInconclusive = "Inconclusive"
)

// Machine names the matrix accepts.
const (
	MachineGTX480     = "gtx480"
	MachineGTX480Half = "gtx480-half"
)

// Spec is one hypothesis: the declarative root a YAML-subset or JSON
// file parses into.
type Spec struct {
	// Version pins the grammar; only SpecVersion parses.
	Version int `json:"version"`
	// Name identifies the hypothesis (report directory, summary lines).
	Name string `json:"name"`
	// Title is the one-line headline of the FINDINGS report.
	Title string `json:"title"`
	// Hypothesis is the falsifiable claim, quoted verbatim in the report.
	Hypothesis string `json:"hypothesis"`
	Matrix     Matrix `json:"matrix"`
	// Seeds drive the workload input generators; every cell runs every
	// seed, and the analysis pairs cells seed-by-seed. Zero is honored.
	Seeds []uint64 `json:"seeds"`
	// Metrics are the measured columns of the report, drawn from
	// sim.Stats (see sim.StatNames). Every metric the comparison references
	// must be listed.
	Metrics []string `json:"metrics"`
	Compare Compare  `json:"compare"`
}

// Matrix is the config matrix: the cross product of every axis, minus
// Exclude. Empty optional axes default to a single neutral value.
type Matrix struct {
	Policies  []string `json:"policies"`
	Workloads []string `json:"workloads"`
	// Machines: gtx480 | gtx480-half (default [gtx480]).
	Machines []string `json:"machines,omitempty"`
	// SMs overrides the machine's SM count; 0 keeps the default
	// (default [0]).
	SMs []int `json:"sms,omitempty"`
	// Scales divides each workload's grid (default [1]).
	Scales []int `json:"scales,omitempty"`
	// GlobalLatency overrides the timing model's global-memory latency in
	// cycles; 0 keeps the default (default [0]).
	GlobalLatency []int64 `json:"global_latency,omitempty"`
	// MaxInFlightMem overrides the per-SM in-flight memory bound; 0 keeps
	// the default (default [0]).
	MaxInFlightMem []int `json:"max_inflight_mem,omitempty"`
	// Exclude prunes cells matching any selector ("machine=gtx480,policy=owf").
	Exclude []string `json:"exclude,omitempty"`
}

// Objective is one Pareto dimension.
type Objective struct {
	Metric string `json:"metric"`
	Goal   string `json:"goal"` // min | max
}

// Compare selects and parameterizes the hypothesis's comparison.
// Fields outside the chosen type's set must stay zero.
type Compare struct {
	Type string `json:"type"`

	// pareto: the dominance frontier over Objectives is computed within
	// each group of cells sharing the Within axes (default [workload]);
	// the hypothesis holds for a seed when every ExpectFrontier cell is
	// non-dominated and every ExpectDominated cell is dominated.
	Objectives      []Objective `json:"objectives,omitempty"`
	Within          []string    `json:"within,omitempty"`
	ExpectFrontier  []string    `json:"expect_frontier,omitempty"`
	ExpectDominated []string    `json:"expect_dominated,omitempty"`

	// threshold: Metric Op Value must hold on every cell matching Where
	// (default: all cells). Aggregate picks the tested statistic:
	// "seeds" (default) tests every per-seed value, mean/p50/p90/max test
	// the cell's cross-seed aggregate (quantiles come from obs
	// histograms).
	Metric    string  `json:"metric,omitempty"`
	Op        string  `json:"op,omitempty"` // "<=" | ">="
	Value     float64 `json:"value,omitempty"`
	Where     string  `json:"where,omitempty"`
	Aggregate string  `json:"aggregate,omitempty"`

	// regression: the hypothesis is "Candidate's Metric is no worse than
	// Control's beyond Tolerance" (relative; direction from Goal,
	// default min). Cells pair on every axis the two selectors don't fix.
	Candidate string  `json:"candidate,omitempty"`
	Control   string  `json:"control,omitempty"`
	Goal      string  `json:"goal,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`

	// equivalence: within each group of cells differing only on the Over
	// axis (default policy), Metric's relative spread must stay within
	// Tolerance for every seed.
	Over string `json:"over,omitempty"`

	// MinEffect is the decisive margin: observations inside ±MinEffect of
	// the boundary are ties and drop out of the sign test.
	MinEffect float64 `json:"min_effect,omitempty"`
	// Alpha, when > 0, relaxes the unanimity rule to an exact one-sided
	// sign-test bound: Confirmed when P(favor count | fair coin) <= Alpha
	// (Refuted symmetrically). Alpha 0 demands unanimity.
	Alpha float64 `json:"alpha,omitempty"`
}

// Parse reads a hypothesis spec from YAML-subset or JSON bytes through
// the shared spec front end (internal/specfile), then validates it.
func Parse(data []byte) (*Spec, error) {
	var spec Spec
	if err := specfile.Decode(data, "hypo", &spec); err != nil {
		return nil, err
	}
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// ParseFile loads and parses a spec file.
func ParseFile(path string) (*Spec, error) {
	var spec Spec
	if err := specfile.DecodeFile(path, "hypo", &spec); err != nil {
		return nil, err
	}
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// applyDefaults fills the neutral values optional fields stand for, so
// the rest of the engine never branches on emptiness.
func (s *Spec) applyDefaults() {
	if len(s.Matrix.Machines) == 0 {
		s.Matrix.Machines = []string{MachineGTX480}
	}
	if len(s.Matrix.SMs) == 0 {
		s.Matrix.SMs = []int{0}
	}
	if len(s.Matrix.Scales) == 0 {
		s.Matrix.Scales = []int{1}
	}
	if len(s.Matrix.GlobalLatency) == 0 {
		s.Matrix.GlobalLatency = []int64{0}
	}
	if len(s.Matrix.MaxInFlightMem) == 0 {
		s.Matrix.MaxInFlightMem = []int{0}
	}
	if s.Compare.Type == ComparePareto && len(s.Compare.Within) == 0 {
		s.Compare.Within = []string{"workload"}
	}
	if s.Compare.Type == CompareEquivalence && s.Compare.Over == "" {
		s.Compare.Over = "policy"
	}
	if s.Compare.Goal == "" {
		s.Compare.Goal = "min"
	}
	if s.Compare.Type == CompareThreshold && s.Compare.Aggregate == "" {
		s.Compare.Aggregate = "seeds"
	}
}

// Validate checks the spec against the grammar's semantic rules and
// returns a *specfile.ValidationError listing every violation, or nil.
// Call after applyDefaults (Parse/ParseFile do).
func (s *Spec) Validate() error {
	errs := &specfile.ValidationError{Prefix: "hypo"}
	bad := errs.Add
	if s.Version != SpecVersion {
		bad("version", "got %d, this build understands only %d", s.Version, SpecVersion)
	}
	if s.Name == "" {
		bad("name", "required")
	}
	if s.Title == "" {
		bad("title", "required")
	}
	s.validateMatrix(bad)
	if len(s.Seeds) == 0 {
		bad("seeds", "at least one seed required")
	}
	if len(s.Metrics) == 0 {
		bad("metrics", "at least one metric required")
	}
	metricSet := map[string]bool{}
	for i, m := range s.Metrics {
		if _, ok := (sim.Stats{}).Value(m); !ok {
			bad(fmt.Sprintf("metrics[%d]", i), "unknown metric %q (want one of %s)", m, strings.Join(sim.StatNames(), ", "))
		}
		if metricSet[m] {
			bad(fmt.Sprintf("metrics[%d]", i), "duplicate metric %q", m)
		}
		metricSet[m] = true
	}
	s.validateCompare(metricSet, bad)
	return errs.Err()
}

func (s *Spec) validateMatrix(bad func(string, string, ...any)) {
	m := &s.Matrix
	if len(m.Policies) == 0 {
		bad("matrix.policies", "at least one policy required")
	}
	for i, p := range m.Policies {
		known := false
		for _, n := range harness.PolicyNames {
			if n == p {
				known = true
			}
		}
		if !known {
			bad(fmt.Sprintf("matrix.policies[%d]", i), "unknown policy %q (want %s)", p, strings.Join(harness.PolicyNames, " | "))
		}
	}
	if len(m.Workloads) == 0 {
		bad("matrix.workloads", "at least one workload required")
	}
	for i, w := range m.Workloads {
		if _, err := workloads.ByName(w); err != nil {
			bad(fmt.Sprintf("matrix.workloads[%d]", i), "unknown workload %q", w)
		}
	}
	for i, mc := range m.Machines {
		if mc != MachineGTX480 && mc != MachineGTX480Half {
			bad(fmt.Sprintf("matrix.machines[%d]", i), "unknown machine %q (want %s | %s)", mc, MachineGTX480, MachineGTX480Half)
		}
	}
	for i, v := range m.SMs {
		if v < 0 {
			bad(fmt.Sprintf("matrix.sms[%d]", i), "must be >= 0, got %d", v)
		}
	}
	for i, v := range m.Scales {
		if v <= 0 {
			bad(fmt.Sprintf("matrix.scales[%d]", i), "must be > 0, got %d", v)
		}
	}
	for i, v := range m.GlobalLatency {
		if v < 0 {
			bad(fmt.Sprintf("matrix.global_latency[%d]", i), "must be >= 0, got %d", v)
		}
	}
	for i, v := range m.MaxInFlightMem {
		if v < 0 {
			bad(fmt.Sprintf("matrix.max_inflight_mem[%d]", i), "must be >= 0, got %d", v)
		}
	}
	for i, sel := range m.Exclude {
		if _, err := parseSelector(sel); err != nil {
			bad(fmt.Sprintf("matrix.exclude[%d]", i), "%v", err)
		}
	}
}

func (s *Spec) validateCompare(metricSet map[string]bool, bad func(string, string, ...any)) {
	c := &s.Compare
	needMetric := func(path, name string) {
		if name == "" {
			bad(path, "required")
			return
		}
		if _, ok := (sim.Stats{}).Value(name); !ok {
			bad(path, "unknown metric %q", name)
		} else if !metricSet[name] {
			bad(path, "metric %q must also be listed under metrics", name)
		}
	}
	checkSel := func(path, sel string, required bool) {
		if sel == "" {
			if required {
				bad(path, "required")
			}
			return
		}
		if _, err := parseSelector(sel); err != nil {
			bad(path, "%v", err)
		}
	}
	if c.MinEffect < 0 {
		bad("compare.min_effect", "must be >= 0, got %g", c.MinEffect)
	}
	if c.Alpha < 0 || c.Alpha >= 1 {
		bad("compare.alpha", "must be in [0, 1), got %g", c.Alpha)
	}
	if c.Goal != "min" && c.Goal != "max" {
		bad("compare.goal", "want min | max, got %q", c.Goal)
	}
	switch c.Type {
	case ComparePareto:
		if len(c.Objectives) < 2 {
			bad("compare.objectives", "pareto needs at least two objectives, got %d", len(c.Objectives))
		}
		for i, o := range c.Objectives {
			needMetric(fmt.Sprintf("compare.objectives[%d].metric", i), o.Metric)
			if o.Goal != "min" && o.Goal != "max" {
				bad(fmt.Sprintf("compare.objectives[%d].goal", i), "want min | max, got %q", o.Goal)
			}
		}
		for i, ax := range c.Within {
			if !knownAxis(ax) {
				bad(fmt.Sprintf("compare.within[%d]", i), "unknown axis %q (want %s)", ax, strings.Join(axisNames, " | "))
			}
		}
		if len(c.ExpectFrontier)+len(c.ExpectDominated) == 0 {
			bad("compare", "pareto needs expect_frontier and/or expect_dominated")
		}
		for i, sel := range c.ExpectFrontier {
			checkSel(fmt.Sprintf("compare.expect_frontier[%d]", i), sel, true)
		}
		for i, sel := range c.ExpectDominated {
			checkSel(fmt.Sprintf("compare.expect_dominated[%d]", i), sel, true)
		}
	case CompareThreshold:
		needMetric("compare.metric", c.Metric)
		if c.Op != "<=" && c.Op != ">=" {
			bad("compare.op", `want "<=" | ">=", got %q`, c.Op)
		}
		checkSel("compare.where", c.Where, false)
		switch c.Aggregate {
		case "seeds", "mean", "p50", "p90", "max":
		default:
			bad("compare.aggregate", "want seeds | mean | p50 | p90 | max, got %q", c.Aggregate)
		}
	case CompareRegression:
		needMetric("compare.metric", c.Metric)
		checkSel("compare.candidate", c.Candidate, true)
		checkSel("compare.control", c.Control, true)
		if c.Tolerance < 0 {
			bad("compare.tolerance", "must be >= 0, got %g", c.Tolerance)
		}
	case CompareEquivalence:
		needMetric("compare.metric", c.Metric)
		if !knownAxis(c.Over) {
			bad("compare.over", "unknown axis %q (want %s)", c.Over, strings.Join(axisNames, " | "))
		}
		if c.Tolerance < 0 {
			bad("compare.tolerance", "must be >= 0, got %g", c.Tolerance)
		}
	case "":
		bad("compare.type", "required (pareto | threshold | regression | equivalence)")
	default:
		bad("compare.type", "unknown type %q (want pareto | threshold | regression | equivalence)", c.Type)
	}
}

// ---------------------------------------------------------------------
// Cells, axes, and selectors
// ---------------------------------------------------------------------

// Cell is one expanded matrix configuration.
type Cell struct {
	Policy         string `json:"policy"`
	Workload       string `json:"workload"`
	Machine        string `json:"machine"`
	SMs            int    `json:"sms,omitempty"`
	Scale          int    `json:"scale"`
	GlobalLatency  int64  `json:"global_latency,omitempty"`
	MaxInFlightMem int    `json:"max_inflight_mem,omitempty"`
}

// axisNames lists every matrix axis, in label order.
var axisNames = []string{"policy", "workload", "machine", "sms", "scale", "global_latency", "max_inflight_mem"}

func knownAxis(name string) bool {
	for _, a := range axisNames {
		if a == name {
			return true
		}
	}
	return false
}

// axis returns the cell's value on the named axis, in string form (the
// form selectors compare against).
func (c Cell) axis(name string) string {
	switch name {
	case "policy":
		return c.Policy
	case "workload":
		return c.Workload
	case "machine":
		return c.Machine
	case "sms":
		return strconv.Itoa(c.SMs)
	case "scale":
		return strconv.Itoa(c.Scale)
	case "global_latency":
		return strconv.FormatInt(c.GlobalLatency, 10)
	case "max_inflight_mem":
		return strconv.Itoa(c.MaxInFlightMem)
	}
	return ""
}

// Label renders the cell as a stable "axis=value" string, omitting
// zero-valued optional knobs (sms/global_latency/max_inflight_mem at
// their machine defaults).
func (c Cell) Label() string {
	var parts []string
	for _, ax := range axisNames {
		switch ax {
		case "sms":
			if c.SMs == 0 {
				continue
			}
		case "global_latency":
			if c.GlobalLatency == 0 {
				continue
			}
		case "max_inflight_mem":
			if c.MaxInFlightMem == 0 {
				continue
			}
		}
		parts = append(parts, ax+"="+c.axis(ax))
	}
	return strings.Join(parts, " ")
}

// labelOn renders only the named axes ("workload=bfs" group labels).
func (c Cell) labelOn(axes []string) string {
	parts := make([]string, len(axes))
	for i, ax := range axes {
		parts[i] = ax + "=" + c.axis(ax)
	}
	return strings.Join(parts, " ")
}

// selector is a parsed "axis=value,axis=value" cell filter.
type selector struct {
	src    string
	fields [][2]string // ordered (axis, value) pairs
}

func parseSelector(s string) (selector, error) {
	sel := selector{src: s}
	if strings.TrimSpace(s) == "" {
		return sel, fmt.Errorf("empty selector")
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		k, v, ok := strings.Cut(part, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return sel, fmt.Errorf("bad selector clause %q (want axis=value)", part)
		}
		if !knownAxis(k) {
			return sel, fmt.Errorf("unknown axis %q in selector (want %s)", k, strings.Join(axisNames, " | "))
		}
		if seen[k] {
			return sel, fmt.Errorf("duplicate axis %q in selector", k)
		}
		seen[k] = true
		sel.fields = append(sel.fields, [2]string{k, v})
	}
	return sel, nil
}

func (sel selector) matches(c Cell) bool {
	for _, f := range sel.fields {
		if c.axis(f[0]) != f[1] {
			return false
		}
	}
	return true
}

// axes returns the axis names the selector fixes.
func (sel selector) axes() []string {
	out := make([]string, len(sel.fields))
	for i, f := range sel.fields {
		out[i] = f[0]
	}
	return out
}

// expand crosses every matrix axis in declared order (workload-major,
// matching the figure sweeps' row order) and drops excluded cells.
func (s *Spec) expand() ([]Cell, error) {
	var excl []selector
	for _, e := range s.Matrix.Exclude {
		sel, err := parseSelector(e)
		if err != nil {
			return nil, err
		}
		excl = append(excl, sel)
	}
	var cells []Cell
	for _, w := range s.Matrix.Workloads {
		for _, p := range s.Matrix.Policies {
			for _, mc := range s.Matrix.Machines {
				for _, sms := range s.Matrix.SMs {
					for _, sc := range s.Matrix.Scales {
						for _, gl := range s.Matrix.GlobalLatency {
							for _, mem := range s.Matrix.MaxInFlightMem {
								c := Cell{Policy: p, Workload: w, Machine: mc, SMs: sms,
									Scale: sc, GlobalLatency: gl, MaxInFlightMem: mem}
								dropped := false
								for _, sel := range excl {
									if sel.matches(c) {
										dropped = true
										break
									}
								}
								if !dropped {
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		errs := &specfile.ValidationError{Prefix: "hypo"}
		errs.Add("matrix", "matrix expands to zero cells after exclude")
		return nil, errs
	}
	return cells, nil
}
