package benchreg

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Definition is the repository benchmark as BENCHMARK.json declares it:
// the command that runs one workload, the workloads, the length of each
// timed phase, and each end-to-end metric's direction and bound. It is
// the one place the benchmark is defined; benchreg only runs and gates
// it.
type Definition struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	// Dir is the directory holding the definition file; the command
	// runs there.
	Dir string `json:"-"`
}

// MetricDef is one end-to-end metric: which way is better, and the
// fraction by which its value may worsen before Compare calls it a
// regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ReadDefinition loads and checks a benchmark definition.
func ReadDefinition(path string) (*Definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def Definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case len(def.Command) == 0:
		return nil, fmt.Errorf("%s: empty command", path)
	case def.RunSeconds <= 0:
		return nil, fmt.Errorf("%s: run_seconds must be > 0", path)
	case len(def.Workloads) == 0:
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	for _, m := range def.EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || m.Bound < 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %q needs better higher|lower and bound >= 0", path, m.Name)
		}
	}
	def.Dir = filepath.Dir(path)
	return &def, nil
}

// PerfPoint is one workload's result: the last line the benchmark
// command prints.
type PerfPoint struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// RunPerf runs every workload of the definition once, in order, with
// seed 1 and no tracing. The command's standard error and every
// standard-output line but the last (its summary lines) go to stderr;
// the last line becomes the workload's entry in the perf section. A
// workload that reports correct: false or any failed op stops the run
// with an error.
func RunPerf(def *Definition, stderr io.Writer) (*Result, error) {
	res := newResult()
	res.Perf = map[string]PerfPoint{}
	for _, w := range def.Workloads {
		args := slices.Concat(def.Command[1:], []string{"--workload", w.Name, "--seed", "1",
			"--seconds", strconv.FormatFloat(def.RunSeconds, 'g', -1, 64), "--trace", "0"})
		cmd := exec.Command(def.Command[0], args...)
		cmd.Dir = def.Dir
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("perf %s: %w", w.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stderr, l)
		}
		var p PerfPoint
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
			return nil, fmt.Errorf("perf %s: result line: %w", w.Name, err)
		}
		if !p.Correct || p.Failed > 0 {
			return nil, fmt.Errorf("perf %s: correct=%v, %d of %d ops failed", w.Name, p.Correct, p.Failed, p.Attempted)
		}
		res.Perf[w.Name] = p
	}
	return res, nil
}

// comparePerf diffs two perf sections. Each end-to-end metric gets
// budget max(bound, threshold) in its worse direction; a workload or
// metric the old point has and the new one lacks, and a rise in failed
// ops are regressions.
func comparePerf(old, new_ map[string]PerfPoint, def *Definition, threshold float64) (regs []string) {
	for _, w := range sortedKeys(old) {
		op := old[w]
		np, ok := new_[w]
		if !ok {
			regs = append(regs, fmt.Sprintf("perf %s: workload missing from new result", w))
			continue
		}
		if np.Failed > op.Failed {
			regs = append(regs, fmt.Sprintf("perf %s failed: %d -> %d", w, op.Failed, np.Failed))
		}
		for _, name := range sortedKeys(op.Metrics) {
			if _, ok := np.Metrics[name]; !ok {
				regs = append(regs, fmt.Sprintf("perf %s %s: metric missing from new result", w, name))
			}
		}
		for _, m := range def.EndToEnd {
			om, ok := op.Metrics[m.Name]
			nm, ok2 := np.Metrics[m.Name]
			if !ok || !ok2 {
				continue
			}
			if r := worsened(fmt.Sprintf("perf %s %s", w, m.Name), m.Better == "higher", om.Value, nm.Value, max(m.Bound, threshold)); r != "" {
				regs = append(regs, r)
			}
		}
	}
	return regs
}
