// Package saturate is the fleet saturation analyzer: it compiles a
// workload mix into a geometric ladder of open-loop rate steps, drives
// each step through the workspec Runner against a gpusimd daemon or a
// gpusimrouter fleet, and finds the knee — the last offered load the
// system absorbs before goodput stops scaling or tail latency blows
// through its SLO — deterministically.
//
// Determinism contract: wall-clock latencies are inherently noisy, so
// they never enter the report. The live drive exists to verify the
// serving path end to end (any failed job aborts the sweep) and to
// calibrate the deterministic per-fingerprint simulation cost (the
// summed RowView.Cycles the daemon reports, a pure function of the
// request fingerprint). All latency and knee analysis then runs in a
// virtual-time c-server FCFS queue model in integer microsecond
// arithmetic, so the same spec + seed yields a byte-identical report on
// every rerun, at any -j, on any machine speed.
package saturate

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"regmutex/internal/specfile"
	"regmutex/internal/workspec"
)

// SweepVersion is the only sweep-spec version this revision understands.
const SweepVersion = 1

// SweepSpec is one declarative saturation sweep: a workload mix, the
// rate ladder to climb, the knee rule, and the virtual-time model
// parameters.
type SweepSpec struct {
	// Version pins the grammar; only SweepVersion parses.
	Version int `json:"version"`
	// Name identifies the sweep in reports and BENCH saturation sections.
	Name string `json:"name"`
	// Seed drives every random draw (arrival jitter, size sampling).
	// Each ladder step derives its own sub-seed, so steps are
	// independent streams.
	Seed uint64 `json:"seed"`
	// Cohorts is the workload mix, in workspec's cohort grammar with two
	// twists: Requests is the cohort's mix *weight* (the ladder owns
	// absolute volume), and Arrival must be left empty (the ladder owns
	// pacing — every step is an open-loop Poisson process).
	Cohorts []workspec.Cohort `json:"cohorts"`
	Ladder  Ladder            `json:"ladder"`
	Knee    KneeRule          `json:"knee"`
	Model   Model             `json:"model"`
}

// Ladder is the geometric sequence of offered-load steps.
type Ladder struct {
	// StartRatePerSec is step 0's offered load (jobs/sec, all cohorts
	// combined).
	StartRatePerSec float64 `json:"start_rate_per_sec"`
	// Factor multiplies the rate between steps (default 2).
	Factor float64 `json:"factor,omitempty"`
	// Steps is how many rungs the ladder has (>= 2: a knee needs a
	// neighbor to compare against).
	Steps int `json:"steps"`
	// SettleSec is the warm-up prefix of each step: arrivals in it load
	// the model's queues but are excluded from measurement.
	SettleSec float64 `json:"settle_sec,omitempty"`
	// MeasureSec is the measured window of each step.
	MeasureSec float64 `json:"measure_sec"`
}

// KneeRule is the deterministic knee detector: climbing the ladder, the
// knee is the last step before either rule fires.
type KneeRule struct {
	// SlopeThreshold fires when the goodput gained per unit of offered
	// load gained between consecutive steps drops below it (default
	// 0.5: less than half of each extra offered job/sec turns into
	// goodput).
	SlopeThreshold float64 `json:"slope_threshold,omitempty"`
	// SLOMultiple fires when a step's overall p99 end-to-end latency
	// exceeds this multiple of step 0's p99 (default 4).
	SLOMultiple float64 `json:"slo_multiple,omitempty"`
}

// Model parameterizes the virtual-time c-server FCFS queue the analysis
// runs in.
type Model struct {
	// Servers is the number of parallel service slots (default 1; set to
	// the fleet's aggregate worker count when sweeping a router).
	Servers int `json:"servers,omitempty"`
	// CyclesPerSec converts a job's calibrated simulation cycles into
	// virtual service time (default 10e6).
	CyclesPerSec int64 `json:"cycles_per_sec,omitempty"`
	// RouteOverheadUs is the fixed per-job routing/admission overhead
	// charged before the job enters the queue.
	RouteOverheadUs int64 `json:"route_overhead_us,omitempty"`
	// StreamOverheadUs is the fixed per-job result-delivery tail charged
	// after service completes.
	StreamOverheadUs int64 `json:"stream_overhead_us,omitempty"`
}

func (l Ladder) withDefaults() Ladder {
	if l.Factor == 0 {
		l.Factor = 2
	}
	return l
}

func (k KneeRule) withDefaults() KneeRule {
	if k.SlopeThreshold == 0 {
		k.SlopeThreshold = 0.5
	}
	if k.SLOMultiple == 0 {
		k.SLOMultiple = 4
	}
	return k
}

func (m Model) withDefaults() Model {
	if m.Servers == 0 {
		m.Servers = 1
	}
	if m.CyclesPerSec == 0 {
		m.CyclesPerSec = 10_000_000
	}
	return m
}

// WithDefaults returns the spec with every defaultable knob resolved.
// Parse applies it; programmatic constructors should too, so Identity
// hashes the effective configuration.
func (s *SweepSpec) WithDefaults() *SweepSpec {
	out := *s
	out.Ladder = s.Ladder.withDefaults()
	out.Knee = s.Knee.withDefaults()
	out.Model = s.Model.withDefaults()
	return &out
}

// Validate checks the sweep against its semantic rules, collecting
// every violation like workspec does. The workload mix is validated by
// deriving step 0's workspec and running its own Validate, so the size
// grammar (workload names, scales, policies) has one source of truth.
func (s *SweepSpec) Validate() error {
	errs := &specfile.ValidationError{Prefix: "saturate"}
	bad := errs.Add
	if s.Version != SweepVersion {
		bad("version", "got %d, this build understands only %d", s.Version, SweepVersion)
	}
	if s.Name == "" {
		bad("name", "required")
	}
	if len(s.Cohorts) == 0 {
		bad("cohorts", "at least one cohort required")
	}
	for i, c := range s.Cohorts {
		p := fmt.Sprintf("cohorts[%d]", i)
		if c.Arrival.Process != "" {
			bad(p+".arrival", "must be empty — the ladder owns pacing (every step is poisson)")
		}
		if c.Requests <= 0 {
			bad(p+".requests", "mix weight must be > 0, got %d", c.Requests)
		}
	}
	l := s.Ladder.withDefaults()
	if l.StartRatePerSec <= 0 {
		bad("ladder.start_rate_per_sec", "must be > 0, got %g", l.StartRatePerSec)
	}
	if l.Factor <= 1 {
		bad("ladder.factor", "must be > 1, got %g", l.Factor)
	}
	if l.Steps < 2 {
		bad("ladder.steps", "must be >= 2 (a knee needs a neighbor), got %d", l.Steps)
	}
	if l.SettleSec < 0 {
		bad("ladder.settle_sec", "must be >= 0, got %g", l.SettleSec)
	}
	if l.MeasureSec <= 0 {
		bad("ladder.measure_sec", "must be > 0, got %g", l.MeasureSec)
	}
	k := s.Knee.withDefaults()
	if k.SlopeThreshold <= 0 || k.SlopeThreshold >= 1 {
		bad("knee.slope_threshold", "must be in (0, 1), got %g", k.SlopeThreshold)
	}
	if k.SLOMultiple <= 1 {
		bad("knee.slo_multiple", "must be > 1, got %g", k.SLOMultiple)
	}
	m := s.Model.withDefaults()
	if m.Servers < 1 {
		bad("model.servers", "must be >= 1, got %d", m.Servers)
	}
	if m.CyclesPerSec <= 0 {
		bad("model.cycles_per_sec", "must be > 0, got %d", m.CyclesPerSec)
	}
	if m.RouteOverheadUs < 0 {
		bad("model.route_overhead_us", "must be >= 0, got %d", m.RouteOverheadUs)
	}
	if m.StreamOverheadUs < 0 {
		bad("model.stream_overhead_us", "must be >= 0, got %d", m.StreamOverheadUs)
	}
	if err := errs.Err(); err != nil {
		return err
	}
	// The mix grammar itself (sizes, SLO classes, cohort names) is
	// checked by workspec on the derived step-0 spec; its findings are
	// relabeled to address the sweep spec the user wrote.
	if stepSpec := s.StepSpec(0); stepSpec != nil {
		err := stepSpec.Validate()
		if ve, ok := err.(*specfile.ValidationError); ok {
			ve.Prefix = errs.Prefix
			for _, se := range ve.Errs {
				se.Prefix, se.Path = errs.Prefix, rewriteStepPath(se.Path)
			}
		}
		return err
	}
	return nil
}

// rewriteStepPath strips step-derived noise from a validation path so
// the error addresses the sweep spec the user wrote, not the derived
// workspec (whose name/arrival/requests the deriver synthesized).
func rewriteStepPath(p string) string {
	if strings.HasPrefix(p, "cohorts[") {
		return p
	}
	return "derived:" + p
}

// OfferedAt returns the ladder's offered load at a step (jobs/sec).
func (s *SweepSpec) OfferedAt(step int) float64 {
	l := s.Ladder.withDefaults()
	rate := l.StartRatePerSec
	for i := 0; i < step; i++ {
		rate *= l.Factor
	}
	return rate
}

// StepSpec derives the workspec for one ladder rung: every cohort keeps
// its size distribution and SLO class, arrivals become a Poisson stream
// at the cohort's weighted share of the step's offered load, and the
// request count covers the settle + measure window. Each step gets its
// own derived seed, so rungs are independent arrival streams.
func (s *SweepSpec) StepSpec(step int) *workspec.Spec {
	l := s.Ladder.withDefaults()
	window := l.SettleSec + l.MeasureSec
	rate := s.OfferedAt(step)
	total := 0
	for _, c := range s.Cohorts {
		total += c.Requests
	}
	if total <= 0 {
		return nil
	}
	spec := &workspec.Spec{
		Version: workspec.SpecVersion,
		Name:    fmt.Sprintf("%s-step%d", s.Name, step),
		Seed:    stepSeed(s.Seed, step),
	}
	for _, c := range s.Cohorts {
		share := float64(c.Requests) / float64(total)
		cohortRate := rate * share
		n := int(math.Round(cohortRate * window))
		if n < 1 {
			n = 1
		}
		spec.Cohorts = append(spec.Cohorts, workspec.Cohort{
			Name:     c.Name,
			SLOClass: c.SLOClass,
			Requests: n,
			Arrival: workspec.Arrival{
				Process:    workspec.ProcessPoisson,
				RatePerSec: cohortRate,
			},
			Size: c.Size,
		})
	}
	return spec
}

// stepSeed derives the per-rung seed from the sweep seed and step index.
func stepSeed(seed uint64, step int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|step%d", seed, step)
	return h.Sum64()
}

// Identity fingerprints the sweep configuration: an FNV-1a hash over
// its canonical JSON form with defaults resolved. Reports stamp it so
// benchreg -compare never diffs sweeps with different configurations.
func (s *SweepSpec) Identity() string {
	data, _ := json.Marshal(s.WithDefaults())
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Parse reads a sweep spec from YAML-subset or JSON bytes through the
// shared specfile front end (strict: unknown keys reject), validates
// it, and resolves defaults.
func Parse(data []byte) (*SweepSpec, error) {
	var spec SweepSpec
	if err := specfile.Decode(data, "saturate", &spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.WithDefaults(), nil
}

// ParseFile loads and parses a sweep spec file.
func ParseFile(path string) (*SweepSpec, error) {
	var spec SweepSpec
	if err := specfile.DecodeFile(path, "saturate", &spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.WithDefaults(), nil
}
