// Package benchreg is the benchmark-trajectory harness behind `make
// bench` and cmd/benchreg: it measures the simulator's throughput over
// a fixed workload×policy matrix, load-tests the gpusimd service path
// over loopback HTTP with a workload-spec-driven schedule
// (internal/workspec), and writes the numbers as a schema-versioned
// BENCH_<date>.json so successive commits accumulate a comparable
// trajectory. Compare diffs two trajectory files and reports metric
// regressions beyond a threshold — the CI tripwire against silently
// slowing the hot path.
package benchreg

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/saturate"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
	"regmutex/internal/workspec"
)

// SchemaVersion stamps every trajectory file; Compare refuses to diff
// across versions so a schema change can't masquerade as a regression.
// Additive sections (load, spec identities) do NOT bump the version:
// Compare warns and skips what the older point lacks instead of
// failing, so the trajectory stays continuous across feature growth.
const SchemaVersion = 1

// Result is one trajectory point: everything a BENCH_<date>.json holds.
type Result struct {
	SchemaVersion int           `json:"schema_version"`
	Date          string        `json:"date"`
	GoVersion     string        `json:"go_version"`
	Quick         bool          `json:"quick"`
	Sim           []SimPoint    `json:"sim,omitempty"`
	Service       *ServicePoint `json:"service,omitempty"`
	// Load is the workload-spec view of the load phase: per-SLO-class
	// latency quantiles and counters, stamped with the spec identity.
	// Older points (pre-spec pipeline) lack it; Compare warns and
	// skips rather than failing.
	Load *LoadPoint `json:"load,omitempty"`
	// Saturation is the optional saturation-sweep section (-sweep): the
	// knee of the offered-load ladder. Older points lack it; Compare
	// warns and skips.
	Saturation *SaturationPoint `json:"saturation,omitempty"`
}

// SimPoint is one workload×policy cell of the simulator matrix.
type SimPoint struct {
	Workload     string  `json:"workload"`
	Policy       string  `json:"policy"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	WallSeconds  float64 `json:"wall_seconds"`
	// CyclesPerSec is the headline throughput: simulated cycles per
	// wall-clock second (the "fast as the hardware allows" number).
	CyclesPerSec float64 `json:"cycles_per_sec"`
	InstrsPerSec float64 `json:"instrs_per_sec"`
}

// ServicePoint summarizes the gpusimd loopback load phase in the
// pre-spec shape old trajectory points carry, so -compare keeps
// working across the pipeline change. Spec/SpecID (absent on old
// points) gate the comparison: a point produced by different traffic
// is warned about, not diffed.
type ServicePoint struct {
	Spec        string    `json:"spec,omitempty"`
	SpecID      string    `json:"spec_id,omitempty"`
	Jobs        int       `json:"jobs"`
	WallSeconds float64   `json:"wall_seconds"`
	JobsPerSec  float64   `json:"jobs_per_sec"`
	MemoHitRate float64   `json:"memo_hit_rate"`
	Latency     Quantiles `json:"latency_ms"`
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

// Options tunes a harness run.
type Options struct {
	// Quick shrinks the matrix and grids for CI smoke (seconds, not
	// minutes); the file records which mode produced it and Compare
	// refuses to mix them.
	Quick bool
	// Workloads and Policies override the matrix (nil = mode default).
	Workloads []string
	Policies  []string
	// Spec drives the load phase. Nil synthesizes the
	// legacy spec — the pre-pipeline 4-seed bfs/static storm, sized by
	// Quick — keeping old -compare baselines meaningful.
	Spec *workspec.Spec
	// Schedule overrides Spec with an already-compiled schedule — the
	// trace-replay path (cmd/benchreg -replay).
	Schedule *workspec.Schedule
	// Compress divides every schedule arrival offset (workspec
	// RunnerOptions.Compress): replay time-compressed traces or slow
	// specs without editing them.
	Compress float64
	// LoadOnly skips the simulator matrix: only the load phase runs.
	// The spec smoke gate uses it.
	LoadOnly bool
	// Par is each simulation's intra-run parallelism
	// (sim.WithParallelism): 0 = GOMAXPROCS, 1 = serial. Simulated
	// cycle counts are identical at every value; only the wall-clock
	// (and hence cycles_per_sec) responds to it.
	Par int
	// Fleet drives the sweep phase through a gpusimrouter over three
	// loopback instances instead of a single daemon. It requires
	// SweepSpec.
	Fleet bool
	// URL drives the sweep phase against an already running gpusimd
	// daemon or gpusimrouter instead of a loopback target. It requires
	// SweepSpec and excludes Fleet.
	URL string
	// SweepSpec adds the saturation-sweep phase (benchreg -sweep): the
	// spec's offered-load ladder against a fresh loopback target. When
	// combined with LoadOnly, the sweep replaces the load phase entirely
	// (the sweep-smoke gate).
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

func (o Options) matrix() (workloadNames, policies []string, scale, sms int) {
	workloadNames, policies = o.Workloads, o.Policies
	if o.Quick {
		if workloadNames == nil {
			workloadNames = []string{"bfs", "sad"}
		}
		if policies == nil {
			policies = []string{"static", "regmutex"}
		}
		return workloadNames, policies, 8, 2
	}
	if workloadNames == nil {
		workloadNames = []string{"bfs", "sad", "dwt2d", "spmv"}
	}
	if policies == nil {
		policies = harness.PolicyNames
	}
	return workloadNames, policies, 2, 4
}

// schedule resolves the load-phase schedule: an explicit Schedule, a
// compiled Spec, or the legacy spec at the mode's size.
func (o Options) schedule() (*workspec.Schedule, error) {
	if o.Schedule != nil {
		return o.Schedule, nil
	}
	spec := o.Spec
	if spec == nil {
		spec = workspec.Legacy(o.Quick)
	}
	return workspec.Compile(spec)
}

// Run executes the phases and assembles the trajectory point.
func Run(o Options) (*Result, error) {
	if o.SweepSpec == nil && (o.Fleet || o.URL != "") {
		return nil, fmt.Errorf("benchreg options: Fleet and URL retarget the sweep phase and need a SweepSpec")
	}
	if o.Fleet && o.URL != "" {
		return nil, fmt.Errorf("benchreg options: Fleet and URL are mutually exclusive")
	}
	res := &Result{
		SchemaVersion: SchemaVersion,
		Date:          time.Now().UTC().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		Quick:         o.Quick,
	}
	log := o.logger()
	if !o.LoadOnly {
		workloadNames, policies, scale, sms := o.matrix()
		log.Info("sim phase", "workloads", len(workloadNames), "policies", len(policies), "scale", scale, "sms", sms)
		sims, err := runSimPhase(workloadNames, policies, scale, sms, o.Par)
		if err != nil {
			return nil, err
		}
		res.Sim = sims
	}

	// With LoadOnly + SweepSpec the sweep IS the load: skip the regular
	// load phase so the smoke gate measures only the ladder.
	sweepOnly := o.LoadOnly && o.SweepSpec != nil
	if !sweepOnly {
		sched, err := o.schedule()
		if err != nil {
			return nil, err
		}
		log.Info("load phase", "spec", sched.SpecName, "spec_id", sched.SpecID, "jobs", len(sched.Items))
		svc, load, err := runServicePhase(sched, o)
		if err != nil {
			return nil, err
		}
		res.Service, res.Load = svc, load
	}

	if o.SweepSpec != nil {
		log.Info("sweep phase", "sweep", o.SweepSpec.Name, "steps", o.SweepSpec.Ladder.Steps, "target", o.sweepTarget())
		sat, err := runSweepPhase(o.SweepSpec, o)
		if err != nil {
			return nil, err
		}
		res.Saturation = sat
	}
	return res, nil
}

// runSimPhase measures each matrix cell serially (wall-clock per cell
// must not be polluted by sibling cells competing for cores) on a
// single-flight-free path: every cell is a distinct simulation.
func runSimPhase(workloadNames, policies []string, scale, sms, par int) ([]SimPoint, error) {
	machine := occupancy.GTX480()
	machine.NumSMs = sms
	var out []SimPoint
	for _, wname := range workloadNames {
		w, err := workloads.ByName(wname)
		if err != nil {
			return nil, fmt.Errorf("benchreg matrix: %w", err)
		}
		k := w.Build(scale)
		for _, pname := range policies {
			run, pol, err := harness.PreparePolicy(machine, k, pname)
			if err != nil {
				return nil, err
			}
			d, err := sim.New(sim.DeviceSpec{Config: machine, Timing: sim.DefaultTiming(), Kernel: run},
				sim.WithPolicy(pol), sim.WithGlobal(w.Input(k, 42)), sim.WithParallelism(par))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			st, err := d.Run()
			wall := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", wname, pname, err)
			}
			if wall <= 0 {
				wall = 1e-9
			}
			out = append(out, SimPoint{
				Workload:     wname,
				Policy:       pname,
				Cycles:       st.Cycles,
				Instructions: st.Instructions,
				WallSeconds:  wall,
				CyclesPerSec: float64(st.Cycles) / wall,
				InstrsPerSec: float64(st.Instructions) / wall,
			})
		}
	}
	return out, nil
}

// runServicePhase boots a real gpusimd service on a loopback listener
// and drives the compiled schedule at it through the workspec runner.
// The ServicePoint carries the legacy aggregate view (server-side memo
// hit rate included); the LoadPoint carries the per-SLO-class
// breakdown under the spec's identity.
func runServicePhase(sched *workspec.Schedule, o Options) (*ServicePoint, *LoadPoint, error) {
	var lb loopback
	defer lb.close()
	svc, url, err := lb.instance(4, len(sched.Items)+8, o.Par)
	if err != nil {
		return nil, nil, err
	}

	rr, err := workspec.Run(context.Background(), sched, workspec.RunnerOptions{
		BaseURL:  url,
		Compress: o.Compress,
		Logger:   o.Logger,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("benchreg load phase: %w", err)
	}

	svc.RefreshGauges()
	hitRate, _ := svc.Metrics().Snapshot().Get("service.memo_hit_rate")
	load := loadPoint(sched, rr)
	svcPoint := &ServicePoint{
		Spec:        sched.SpecName,
		SpecID:      sched.SpecID,
		Jobs:        rr.Jobs,
		WallSeconds: rr.WallSeconds,
		JobsPerSec:  rr.JobsPerSec,
		MemoHitRate: hitRate,
		Latency:     quantilesOf(mergedLatency(rr)),
	}
	return svcPoint, load, nil
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

// mergedLatency folds every class histogram into one aggregate
// distribution — the legacy all-traffic latency view.
func mergedLatency(rr *workspec.RunResult) obs.HistogramSnapshot {
	var all obs.HistogramSnapshot
	for _, cs := range rr.Classes {
		all.Merge(cs.Latency)
	}
	return all
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

// specsComparable decides whether two load-bearing sections measured
// the same traffic. Old points (pre-spec pipeline) carry no identity;
// they ran the hardcoded 4-shape storm, which the legacy specs
// reproduce — so an empty old identity matches a legacy-family new
// point and the trajectory stays unbroken across the redesign.
func specsComparable(oldID, newID, newName string) bool {
	if oldID == newID {
		return true
	}
	return oldID == "" && strings.HasPrefix(newName, "legacy")
}

// Compare diffs two trajectory points and lists every regression beyond
// threshold (a fraction: 0.10 = 10%). Throughput metrics regress by
// dropping, latency metrics by rising. Cells present in old but missing
// from new count as regressions — a benchmark silently vanishing must
// not pass. Additive schema growth is forward-compatible: a section the
// older point predates, or a load section produced by a different
// workload spec, is reported in warnings and skipped, never failed.
// The error is reserved for structurally incomparable files (schema or
// mode mismatch).
func Compare(old, new_ *Result, threshold float64) (regs, warns []string, err error) {
	if old.SchemaVersion != new_.SchemaVersion {
		return nil, nil, fmt.Errorf("schema mismatch: old v%d vs new v%d", old.SchemaVersion, new_.SchemaVersion)
	}
	if old.Quick != new_.Quick {
		return nil, nil, fmt.Errorf("mode mismatch: old quick=%v vs new quick=%v", old.Quick, new_.Quick)
	}
	lowerIsWorse := func(metric string, oldV, newV float64) {
		if oldV > 0 && newV < oldV*(1-threshold) {
			regs = append(regs, fmt.Sprintf("%s: %.4g -> %.4g (-%.1f%%, budget %.0f%%)",
				metric, oldV, newV, 100*(1-newV/oldV), 100*threshold))
		}
	}
	higherIsWorse := func(metric string, oldV, newV float64) {
		if oldV > 0 && newV > oldV*(1+threshold) {
			regs = append(regs, fmt.Sprintf("%s: %.4g -> %.4g (+%.1f%%, budget %.0f%%)",
				metric, oldV, newV, 100*(newV/oldV-1), 100*threshold))
		}
	}

	newSim := map[string]SimPoint{}
	for _, p := range new_.Sim {
		newSim[p.Workload+"/"+p.Policy] = p
	}
	for _, op := range old.Sim {
		key := op.Workload + "/" + op.Policy
		np, ok := newSim[key]
		if !ok {
			regs = append(regs, fmt.Sprintf("sim %s: benchmark missing from new result", key))
			continue
		}
		lowerIsWorse("sim "+key+" cycles_per_sec", op.CyclesPerSec, np.CyclesPerSec)
	}

	if old.Service != nil {
		switch {
		case new_.Service == nil:
			regs = append(regs, "service phase missing from new result")
		case !specsComparable(old.Service.SpecID, new_.Service.SpecID, new_.Service.Spec):
			warns = append(warns, fmt.Sprintf(
				"service sections measured different workload specs (old %s vs new %s); not compared",
				specLabel(old.Service.Spec, old.Service.SpecID), specLabel(new_.Service.Spec, new_.Service.SpecID)))
		default:
			lowerIsWorse("service jobs_per_sec", old.Service.JobsPerSec, new_.Service.JobsPerSec)
			higherIsWorse("service latency_p99_ms", old.Service.Latency.P99, new_.Service.Latency.P99)
		}
	}

	switch {
	case old.Load == nil && new_.Load != nil:
		warns = append(warns, "old point predates the load section (per-SLO-class metrics); not compared")
	case old.Load != nil && new_.Load == nil:
		warns = append(warns, "load section missing from new result; not compared")
	case old.Load != nil && new_.Load != nil:
		if !specsComparable(old.Load.SpecID, new_.Load.SpecID, new_.Load.Spec) {
			warns = append(warns, fmt.Sprintf(
				"load sections measured different workload specs (old %s vs new %s); not compared",
				specLabel(old.Load.Spec, old.Load.SpecID), specLabel(new_.Load.Spec, new_.Load.SpecID)))
			break
		}
		lowerIsWorse("load jobs_per_sec", old.Load.JobsPerSec, new_.Load.JobsPerSec)
		lowerIsWorse("load memo_hit_rate", old.Load.MemoHitRate, new_.Load.MemoHitRate)
		for class, oc := range old.Load.Classes {
			nc, ok := new_.Load.Classes[class]
			if !ok {
				regs = append(regs, fmt.Sprintf("load slo class %q missing from new result", class))
				continue
			}
			higherIsWorse(fmt.Sprintf("load %s latency_p99_ms", class), oc.Latency.P99, nc.Latency.P99)
		}
	}

	// The saturation sweep is additive schema growth like the load
	// section: a point that predates it (or simply didn't run -sweep) is
	// warned about and skipped, never failed. When both sides swept the
	// same spec against the same target, the knee IS the trajectory
	// metric: offered load and goodput at the knee regress by dropping,
	// the knee-step p99 by rising.
	switch {
	case old.Saturation == nil && new_.Saturation != nil:
		warns = append(warns, "old point predates the saturation section (knee metrics); not compared")
	case old.Saturation != nil && new_.Saturation == nil:
		warns = append(warns, "saturation section missing from new result; not compared")
	case old.Saturation != nil && new_.Saturation != nil:
		os_, ns := old.Saturation, new_.Saturation
		if os_.SpecID != ns.SpecID || os_.Target != ns.Target {
			warns = append(warns, fmt.Sprintf(
				"saturation sections measured different sweeps (old %s@%s vs new %s@%s); not compared",
				specLabel(os_.Spec, os_.SpecID), os_.Target, specLabel(ns.Spec, ns.SpecID), ns.Target))
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

func specLabel(name, id string) string {
	if name == "" && id == "" {
		return "pre-spec"
	}
	return fmt.Sprintf("%s/%s", name, id)
}
