// Package benchreg is the benchmark-trajectory harness behind `make
// bench` and cmd/benchreg. It runs the repository benchmark that
// BENCHMARK.json defines (perf.go) and records each workload's result
// line in the perf section of a schema-versioned BENCH_<date>.json, so
// successive commits accumulate a comparable trajectory. It also
// load-tests the gpusimd service path over loopback HTTP with a
// workload-spec-driven schedule (internal/workspec), and climbs a
// saturation ladder (-sweep). Compare diffs two trajectory files and
// reports every regression beyond its budget — the CI tripwire against
// silently slowing the hot path.
package benchreg

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"time"

	"regmutex/internal/obs"
	"regmutex/internal/saturate"
	"regmutex/internal/workspec"
)

// SchemaVersion stamps every trajectory file; Compare refuses to diff
// across versions so a schema change can't masquerade as a regression.
// Additive sections (perf, load, saturation) do NOT bump the version:
// Compare warns and skips what the older point lacks instead of
// failing, so the trajectory stays continuous across feature growth.
const SchemaVersion = 1

// Result is one trajectory point: everything a BENCH_<date>.json holds.
// Each run mode fills one section.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	GoVersion     string `json:"go_version"`
	// Perf holds each benchmark workload's result line, keyed by
	// workload name (RunPerf).
	Perf map[string]PerfPoint `json:"perf,omitempty"`
	// Load is the workload-spec load phase: per-SLO-class latency
	// quantiles and counters, stamped with the spec identity.
	Load *LoadPoint `json:"load,omitempty"`
	// Saturation is the saturation-sweep section (-sweep): the knee of
	// the offered-load ladder.
	Saturation *SaturationPoint `json:"saturation,omitempty"`
}

func newResult() *Result {
	return &Result{
		SchemaVersion: SchemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
	}
}

// LoadPoint is the workload-spec-native load section: which spec ran
// (by name and content identity), and the per-SLO-class breakdown.
type LoadPoint struct {
	Spec        string  `json:"spec"`
	SpecID      string  `json:"spec_id"`
	Seed        uint64  `json:"seed"`
	Jobs        int     `json:"jobs"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// MemoHitRate is the client-observed coalesced fraction — the memo
	// economics under the spec's popularity skew.
	MemoHitRate float64               `json:"memo_hit_rate"`
	Classes     map[string]ClassPoint `json:"slo_classes"`
}

// ClassPoint is one SLO class's latency and outcome summary.
type ClassPoint struct {
	Jobs      int64     `json:"jobs"`
	Failed    int64     `json:"failed"`
	Coalesced int64     `json:"coalesced"`
	Latency   Quantiles `json:"latency_ms"`
}

// Quantiles is a latency distribution summary in milliseconds.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func quantilesOf(s obs.HistogramSnapshot) Quantiles {
	return Quantiles{
		Count: s.Count,
		P50:   s.Quantile(0.50) * 1000,
		P90:   s.Quantile(0.90) * 1000,
		P99:   s.Quantile(0.99) * 1000,
		Max:   s.Max * 1000,
	}
}

// Options tunes a load or sweep run.
type Options struct {
	// Spec drives the load phase.
	Spec *workspec.Spec
	// Schedule overrides Spec with an already-compiled schedule — the
	// trace-replay path (cmd/benchreg -replay).
	Schedule *workspec.Schedule
	// Compress divides every schedule arrival offset (workspec
	// RunnerOptions.Compress): replay time-compressed traces or slow
	// specs without editing them.
	Compress float64
	// Fleet drives the sweep phase through a gpusimrouter over three
	// loopback instances instead of a single daemon. It requires
	// SweepSpec.
	Fleet bool
	// URL drives the sweep phase against an already running gpusimd
	// daemon or gpusimrouter instead of a loopback target. It requires
	// SweepSpec and excludes Fleet.
	URL string
	// SweepSpec selects the saturation sweep instead of the load phase:
	// the spec's offered-load ladder against a fresh loopback target.
	SweepSpec *saturate.SweepSpec
	// Logger narrates phases; nil discards.
	Logger *slog.Logger
}

func (o Options) logger() *slog.Logger {
	if o.Logger == nil {
		return obs.NopLogger()
	}
	return o.Logger.With("component", "benchreg")
}

// sweepTarget names what the sweep phase drives, as recorded in
// SaturationPoint.Target.
func (o Options) sweepTarget() string {
	switch {
	case o.URL != "":
		return o.URL
	case o.Fleet:
		return "router-fleet-3"
	}
	return "daemon"
}

// Run executes exactly one phase and assembles the trajectory point:
// the saturation sweep when SweepSpec is set, and otherwise the load
// phase over Schedule or Spec.
func Run(o Options) (*Result, error) {
	load := o.Spec != nil || o.Schedule != nil
	switch {
	case o.SweepSpec == nil && (o.Fleet || o.URL != ""):
		return nil, fmt.Errorf("benchreg options: Fleet and URL retarget the sweep phase and need a SweepSpec")
	case o.Fleet && o.URL != "":
		return nil, fmt.Errorf("benchreg options: Fleet and URL are mutually exclusive")
	case load && o.SweepSpec != nil:
		return nil, fmt.Errorf("benchreg options: a load spec and a sweep are separate runs")
	case !load && o.SweepSpec == nil:
		return nil, fmt.Errorf("benchreg options: need a load spec, schedule or sweep")
	}
	res := newResult()
	log := o.logger()
	if o.SweepSpec != nil {
		log.Info("sweep phase", "sweep", o.SweepSpec.Name, "steps", o.SweepSpec.Ladder.Steps, "target", o.sweepTarget())
		sat, err := runSweepPhase(o.SweepSpec, o)
		if err != nil {
			return nil, err
		}
		res.Saturation = sat
		return res, nil
	}
	sched := o.Schedule
	if sched == nil {
		var err error
		if sched, err = workspec.Compile(o.Spec); err != nil {
			return nil, err
		}
	}
	log.Info("load phase", "spec", sched.SpecName, "spec_id", sched.SpecID, "jobs", len(sched.Items))
	lp, err := runLoadPhase(sched, o)
	if err != nil {
		return nil, err
	}
	res.Load = lp
	return res, nil
}

// runLoadPhase boots a real gpusimd service on a loopback listener,
// drives the compiled schedule at it through the workspec runner, and
// requires every SLO class to have completed jobs with a populated
// latency histogram and no failures.
func runLoadPhase(sched *workspec.Schedule, o Options) (*LoadPoint, error) {
	var lb loopback
	defer lb.close()
	url, err := lb.instance(4, len(sched.Items)+8)
	if err != nil {
		return nil, err
	}
	rr, err := workspec.Run(context.Background(), sched, workspec.RunnerOptions{
		BaseURL:  url,
		Compress: o.Compress,
		Logger:   o.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("benchreg load phase: %w", err)
	}
	lp := loadPoint(sched, rr)
	if err := lp.check(); err != nil {
		return nil, fmt.Errorf("benchreg load phase: %w", err)
	}
	return lp, nil
}

// loadPoint renders a runner result as the trajectory's load section.
func loadPoint(sched *workspec.Schedule, rr *workspec.RunResult) *LoadPoint {
	lp := &LoadPoint{
		Spec:        sched.SpecName,
		SpecID:      sched.SpecID,
		Seed:        sched.Seed,
		Jobs:        rr.Jobs,
		WallSeconds: rr.WallSeconds,
		JobsPerSec:  rr.JobsPerSec,
		MemoHitRate: rr.MemoHitRate,
		Classes:     map[string]ClassPoint{},
	}
	for class, cs := range rr.Classes {
		lp.Classes[class] = ClassPoint{
			Jobs:      cs.Jobs,
			Failed:    cs.Failed,
			Coalesced: cs.Coalesced,
			Latency:   quantilesOf(cs.Latency),
		}
	}
	return lp
}

// check is the load gate: the per-SLO-class series must exist and be
// populated, or the spec pipeline is broken.
func (lp *LoadPoint) check() error {
	if len(lp.Classes) == 0 {
		return fmt.Errorf("no SLO classes in load section")
	}
	for _, class := range sortedKeys(lp.Classes) {
		c := lp.Classes[class]
		switch {
		case c.Jobs <= 0:
			return fmt.Errorf("slo class %q completed no jobs", class)
		case c.Latency.Count <= 0 || c.Latency.Max <= 0:
			return fmt.Errorf("slo class %q has an empty latency histogram", class)
		case c.Failed > 0:
			return fmt.Errorf("slo class %q had %d failed jobs", class, c.Failed)
		}
	}
	return nil
}

// WriteFile persists the result as indented JSON.
func (r *Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and schema-checks a trajectory file.
func ReadFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.SchemaVersion == 0 {
		return nil, fmt.Errorf("%s: missing schema_version", path)
	}
	return &r, nil
}

// DefaultFilename names a trajectory file for today: BENCH_<date>.json.
func DefaultFilename() string {
	return "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
}

// Compare diffs two trajectory points and lists every regression. The
// perf section is judged by def: each end-to-end metric may worsen by
// max(its bound, threshold) in the direction BENCHMARK.json names; a
// workload or metric that vanished and a rise in failed ops are
// regressions too. Load and saturation sections are judged at
// threshold (a fraction: 0.10 = 10%): throughput regresses by dropping,
// latency by rising. Additive schema growth is forward-compatible: a
// section the older point predates, or one produced by a different
// workload spec, is reported in warnings and skipped, never failed.
// The error is reserved for structurally incomparable files.
func Compare(old, new_ *Result, def *Definition, threshold float64) (regs, warns []string, err error) {
	if old.SchemaVersion != new_.SchemaVersion {
		return nil, nil, fmt.Errorf("schema mismatch: old v%d vs new v%d", old.SchemaVersion, new_.SchemaVersion)
	}
	lowerIsWorse := func(metric string, oldV, newV float64) {
		if r := worsened(metric, true, oldV, newV, threshold); r != "" {
			regs = append(regs, r)
		}
	}
	higherIsWorse := func(metric string, oldV, newV float64) {
		if r := worsened(metric, false, oldV, newV, threshold); r != "" {
			regs = append(regs, r)
		}
	}

	switch {
	case old.Perf == nil && new_.Perf != nil:
		warns = append(warns, "old point predates the perf section (BENCHMARK.json workloads); not compared")
	case old.Perf != nil && new_.Perf == nil:
		regs = append(regs, "perf section missing from new result")
	case old.Perf != nil:
		if def == nil {
			return nil, nil, fmt.Errorf("perf sections need the benchmark definition to compare")
		}
		regs = append(regs, comparePerf(old.Perf, new_.Perf, def, threshold)...)
	}

	switch {
	case old.Load == nil && new_.Load != nil:
		warns = append(warns, "old point predates the load section (per-SLO-class metrics); not compared")
	case old.Load != nil && new_.Load == nil:
		warns = append(warns, "load section missing from new result; not compared")
	case old.Load != nil && new_.Load != nil:
		if old.Load.SpecID != new_.Load.SpecID {
			warns = append(warns, fmt.Sprintf(
				"load sections measured different workload specs (old %s/%s vs new %s/%s); not compared",
				old.Load.Spec, old.Load.SpecID, new_.Load.Spec, new_.Load.SpecID))
			break
		}
		lowerIsWorse("load jobs_per_sec", old.Load.JobsPerSec, new_.Load.JobsPerSec)
		lowerIsWorse("load memo_hit_rate", old.Load.MemoHitRate, new_.Load.MemoHitRate)
		for _, class := range sortedKeys(old.Load.Classes) {
			nc, ok := new_.Load.Classes[class]
			if !ok {
				regs = append(regs, fmt.Sprintf("load slo class %q missing from new result", class))
				continue
			}
			higherIsWorse(fmt.Sprintf("load %s latency_p99_ms", class), old.Load.Classes[class].Latency.P99, nc.Latency.P99)
		}
	}

	// When both sides swept the same spec against the same target, the
	// knee IS the trajectory metric: offered load and goodput at the
	// knee regress by dropping, the knee-step p99 by rising.
	switch {
	case old.Saturation == nil && new_.Saturation != nil:
		warns = append(warns, "old point predates the saturation section (knee metrics); not compared")
	case old.Saturation != nil && new_.Saturation == nil:
		warns = append(warns, "saturation section missing from new result; not compared")
	case old.Saturation != nil && new_.Saturation != nil:
		os_, ns := old.Saturation, new_.Saturation
		if os_.SpecID != ns.SpecID || os_.Target != ns.Target {
			warns = append(warns, fmt.Sprintf(
				"saturation sections measured different sweeps (old %s/%s@%s vs new %s/%s@%s); not compared",
				os_.Spec, os_.SpecID, os_.Target, ns.Spec, ns.SpecID, ns.Target))
			break
		}
		if os_.KneeFound && !ns.KneeFound {
			regs = append(regs, "saturation: old point found a knee, new point found none (ladder no longer saturates or detector broke)")
			break
		}
		if os_.KneeFound && ns.KneeFound {
			lowerIsWorse("saturation knee_offered_per_sec", os_.KneeOfferedPerSec, ns.KneeOfferedPerSec)
			lowerIsWorse("saturation knee_goodput_per_sec", os_.KneeGoodputPerSec, ns.KneeGoodputPerSec)
			higherIsWorse("saturation knee_p99_ms", os_.KneeP99Ms, ns.KneeP99Ms)
		}
	}

	return regs, warns, nil
}

// worsened describes the move from oldV to newV when it is worse than
// budget (a fraction) in the bad direction: a drop when higher is
// better, a rise otherwise. It returns "" for a move within budget.
func worsened(metric string, higherBetter bool, oldV, newV, budget float64) string {
	switch {
	case oldV <= 0:
	case higherBetter && newV < oldV*(1-budget):
		return fmt.Sprintf("%s: %.4g -> %.4g (-%.1f%%, budget %.0f%%)", metric, oldV, newV, 100*(1-newV/oldV), 100*budget)
	case !higherBetter && newV > oldV*(1+budget):
		return fmt.Sprintf("%s: %.4g -> %.4g (+%.1f%%, budget %.0f%%)", metric, oldV, newV, 100*(newV/oldV-1), 100*budget)
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
