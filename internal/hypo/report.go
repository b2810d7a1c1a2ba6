package hypo

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// fmtF renders a float deterministically and compactly: integers print
// without a fraction, everything else with up to 4 significant
// fractional digits and trailing zeros trimmed.
func fmtF(v float64) string {
	if math.IsInf(v, 1) {
		return "+inf"
	}
	if math.IsInf(v, -1) {
		return "-inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// fmtP renders a p-value with enough resolution to compare to any
// plausible alpha.
func fmtP(v float64) string {
	if v == 1 {
		return "1"
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// WriteJSON writes the indented machine-readable report. Everything in
// Result is plain data, so encoding/json's sorted map keys make the
// bytes deterministic.
func WriteJSON(w io.Writer, res *Result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFindings renders the human-readable FINDINGS report. The output
// is a pure function of the Result: no timestamps, no host names, no
// map iteration — so the bytes are identical across -j settings
// and repeated runs (the determinism contract in DESIGN.md §14).
func WriteFindings(w io.Writer, res *Result) error {
	b := &strings.Builder{}
	spec := res.spec

	fmt.Fprintf(b, "# %s: %s\n\n", res.Name, res.Title)
	fmt.Fprintf(b, "**Status:** %s\n", res.Verdict)
	fmt.Fprintf(b, "**Type:** Statistical (%s, %d cells × %d seeds = %d runs", res.CompareType,
		len(res.Cells), len(res.Seeds), len(res.Cells)*len(res.Seeds))
	if res.FailedRuns > 0 {
		fmt.Fprintf(b, ", %d failed", res.FailedRuns)
	}
	fmt.Fprintf(b, ")\n\n")

	fmt.Fprintf(b, "## Hypothesis\n\n> %s\n\n", res.Hypothesis)

	fmt.Fprintf(b, "## Experiment design\n\n")
	fmt.Fprintf(b, "- Matrix: %s\n", matrixSummary(spec))
	fmt.Fprintf(b, "- Seeds: %s\n", seedList(res.Seeds))
	fmt.Fprintf(b, "- Metrics: %s\n", strings.Join(res.Metrics, ", "))
	fmt.Fprintf(b, "- Decision rule: %s\n\n", res.Analysis.Rule)

	fmt.Fprintf(b, "## Results\n\n")
	writeResultsTable(b, res)

	fmt.Fprintf(b, "## Analysis\n\n")
	a := &res.Analysis
	fmt.Fprintf(b, "- Observations: %d favor, %d oppose, %d tie\n", a.Favor, a.Oppose, a.Ties)
	if a.Favor+a.Oppose > 0 {
		fmt.Fprintf(b, "- Exact sign test: P(favor >= %d | fair coin) = %s, P(oppose >= %d) = %s\n",
			a.Favor, fmtP(a.SignP), a.Oppose, fmtP(a.SignPOpp))
		fmt.Fprintf(b, "- Median effect: %s\n", fmtF(a.MedianEffect))
	}
	for _, f := range a.Frontiers {
		fmt.Fprintf(b, "- Mean frontier (bracketed = non-dominated): %s\n", f)
	}
	for _, n := range a.Notes {
		fmt.Fprintf(b, "- Note: %s\n", n)
	}
	b.WriteString("\n")

	fmt.Fprintf(b, "## Verdict\n\n**%s.** %s\n", res.Verdict, verdictSentence(res))

	_, err := io.WriteString(w, b.String())
	return err
}

// writeResultsTable emits one row per cell with mean and p90 of every
// metric, plus failure counts when present.
func writeResultsTable(b *strings.Builder, res *Result) {
	header := []string{"cell"}
	for _, m := range res.Metrics {
		header = append(header, m+" (mean)", m+" (p90)")
	}
	if res.FailedRuns > 0 {
		header = append(header, "failed")
	}
	fmt.Fprintf(b, "| %s |\n", strings.Join(header, " | "))
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(b, "| %s |\n", strings.Join(sep, " | "))
	for i := range res.Cells {
		cr := &res.Cells[i]
		row := []string{cr.Cell.Label()}
		for _, m := range res.Metrics {
			if a, ok := cr.Agg[m]; ok {
				row = append(row, fmtF(a.Mean), fmtF(a.P90))
			} else {
				row = append(row, "-", "-")
			}
		}
		if res.FailedRuns > 0 {
			row = append(row, strconv.Itoa(cr.Failed))
		}
		fmt.Fprintf(b, "| %s |\n", strings.Join(row, " | "))
	}
	b.WriteString("\n")
}

// matrixSummary renders the spec's axes compactly, omitting axes left
// at their defaults.
func matrixSummary(s *Spec) string {
	var parts []string
	add := func(name string, vals []string) {
		parts = append(parts, fmt.Sprintf("%s ∈ {%s}", name, strings.Join(vals, ", ")))
	}
	add("policy", s.Matrix.Policies)
	add("workload", s.Matrix.Workloads)
	if len(s.Matrix.Machines) > 1 || s.Matrix.Machines[0] != MachineGTX480 {
		add("machine", s.Matrix.Machines)
	}
	if len(s.Matrix.SMs) > 1 || s.Matrix.SMs[0] != 0 {
		add("sms", ints(s.Matrix.SMs))
	}
	if len(s.Matrix.Scales) > 1 || s.Matrix.Scales[0] != 1 {
		add("scale", ints(s.Matrix.Scales))
	}
	if len(s.Matrix.GlobalLatency) > 1 || s.Matrix.GlobalLatency[0] != 0 {
		gl := make([]string, len(s.Matrix.GlobalLatency))
		for i, v := range s.Matrix.GlobalLatency {
			gl[i] = strconv.FormatInt(v, 10)
		}
		add("global_latency", gl)
	}
	if len(s.Matrix.MaxInFlightMem) > 1 || s.Matrix.MaxInFlightMem[0] != 0 {
		add("max_inflight_mem", ints(s.Matrix.MaxInFlightMem))
	}
	if len(s.Matrix.Exclude) > 0 {
		parts = append(parts, fmt.Sprintf("minus %d excluded", len(s.Matrix.Exclude)))
	}
	return strings.Join(parts, " × ")
}

func ints(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}

func seedList(seeds []uint64) string {
	out := make([]string, len(seeds))
	for i, s := range seeds {
		out[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(out, ", ")
}

// verdictSentence is the one-line plain-English reading of the verdict.
func verdictSentence(res *Result) string {
	a := &res.Analysis
	switch res.Verdict {
	case VerdictConfirmed:
		if a.Oppose == 0 {
			return fmt.Sprintf("All %d decisive observation(s) favor the hypothesis.", a.Favor)
		}
		return fmt.Sprintf("%d of %d decisive observation(s) favor the hypothesis (sign test p = %s).",
			a.Favor, a.Favor+a.Oppose, fmtP(a.SignP))
	case VerdictRefuted:
		if a.Favor == 0 {
			return fmt.Sprintf("All %d decisive observation(s) oppose the hypothesis.", a.Oppose)
		}
		return fmt.Sprintf("%d of %d decisive observation(s) oppose the hypothesis (sign test p = %s).",
			a.Oppose, a.Favor+a.Oppose, fmtP(a.SignPOpp))
	default:
		if res.FailedRuns > 0 {
			return "The run matrix is incomplete; no verdict is drawn from partial data."
		}
		return "The evidence does not decisively favor either side."
	}
}
