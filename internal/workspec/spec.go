// Package workspec is the workload-specification layer of the load
// pipeline: a versioned, declarative description of traffic — client
// cohorts, each with an arrival process, a size distribution over
// kernel/grid parameters, and an SLO class — compiled into a
// deterministic arrival schedule (same spec + seed ⇒ byte-identical
// schedule) and driven against a gpusimd daemon or a gpusimrouter
// fleet as real service.SubmitRequest streams. Recorded traces replay
// through the same pipeline as just another schedule source.
//
// Everything that used to construct load by hand — benchreg's
// hardcoded shape loop, ad-hoc harness job bodies — converges on the one Spec → Schedule → Runner path.
package workspec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"regmutex/internal/harness"
	"regmutex/internal/specfile"
	"regmutex/internal/workloads"
)

// SpecVersion is the only spec version this revision understands.
const SpecVersion = 1

// Arrival processes.
const (
	ProcessASAP     = "asap"     // every arrival at t=0: a closed loop paced by the runner's in-flight cap
	ProcessConstant = "constant" // fixed spacing 1/rate
	ProcessPoisson  = "poisson"  // memoryless: exponential inter-arrival at rate
	ProcessDiurnal  = "diurnal"  // piecewise-constant rate over a repeating period (multi-period/diurnal)
	ProcessBurst    = "burst"    // bursts of burst_size back-to-back arrivals every interval_sec
)

// Spec is one workload specification: the declarative root that a
// YAML-subset or JSON file parses into. Same Spec content + Seed
// always compiles to a byte-identical Schedule.
type Spec struct {
	// Version pins the grammar; only SpecVersion parses.
	Version int `json:"version"`
	// Name identifies the spec in BENCH_<date>.json load sections;
	// benchreg -compare only diffs load phases whose spec identity
	// (name + content + seed) matches.
	Name string `json:"name"`
	// Seed drives every random draw of the compilation (arrival jitter,
	// size-distribution sampling). Zero is a valid, honored seed.
	Seed    uint64   `json:"seed"`
	Cohorts []Cohort `json:"cohorts"`
}

// Cohort is one client population: how often its requests arrive
// (Arrival), what each request looks like (Size), and which SLO class
// its latency is accounted under.
type Cohort struct {
	Name string `json:"name"`
	// SLOClass buckets this cohort's latency histograms and counters
	// ("critical", "batch", ...). Cohorts may share a class.
	SLOClass string `json:"slo_class"`
	// Requests is how many arrivals the schedule holds for this cohort.
	Requests int     `json:"requests"`
	Arrival  Arrival `json:"arrival"`
	Size     Size    `json:"size"`
}

// Arrival selects and parameterizes the cohort's arrival process.
type Arrival struct {
	Process string `json:"process"`
	// RatePerSec is the mean arrival rate for constant and poisson.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// PeriodSec and RatesPerSec define the diurnal process: the period
	// is split into len(RatesPerSec) equal slices, each an independent
	// Poisson rate; the pattern repeats until Requests arrivals exist.
	PeriodSec   float64   `json:"period_sec,omitempty"`
	RatesPerSec []float64 `json:"rates_per_sec,omitempty"`
	// BurstSize arrivals land back-to-back (BurstGapSec apart, default
	// 0) every IntervalSec.
	BurstSize   int     `json:"burst_size,omitempty"`
	IntervalSec float64 `json:"interval_sec,omitempty"`
	BurstGapSec float64 `json:"burst_gap_sec,omitempty"`
}

// Size is the request-shape distribution: which workload/policy each
// arrival runs and on what grid/machine scale. Weighted workload
// choices plus a small seed pool model skewed popularity — a few hot
// request shapes dominating, which is what exercises memo hit rates.
type Size struct {
	// Exactly one of Workload (every request identical) or Workloads
	// (weighted draw per request).
	Workload  string           `json:"workload,omitempty"`
	Workloads []WeightedChoice `json:"workloads,omitempty"`
	// Policy is a single policy name or "all" ("" = service default).
	Policy string `json:"policy,omitempty"`
	// Scale divides the workload grid (0 = service default); Scales, if
	// set, is a uniform choice set drawn per request instead.
	Scale  int   `json:"scale,omitempty"`
	Scales []int `json:"scales,omitempty"`
	SMs    int   `json:"sms,omitempty"`
	Half   bool  `json:"half,omitempty"`
	// SeedPool draws each request's input seed uniformly from
	// [0, SeedPool); a small pool yields duplicate requests that
	// coalesce in memo caches. 0 pins the seed to the service default.
	SeedPool int `json:"seed_pool,omitempty"`
	// Priority orders the daemon's queue (higher pops first).
	Priority int `json:"priority,omitempty"`
}

// WeightedChoice is one option of a weighted draw. Weight defaults
// to 1 when omitted.
type WeightedChoice struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight,omitempty"`
}

// Validate checks the spec against the grammar's semantic rules and
// returns a *specfile.ValidationError listing every violation, or nil.
func (s *Spec) Validate() error {
	errs := &specfile.ValidationError{Prefix: "workspec"}
	bad := errs.Add
	if s.Version != SpecVersion {
		bad("version", "got %d, this build understands only %d", s.Version, SpecVersion)
	}
	if s.Name == "" {
		bad("name", "required")
	}
	if len(s.Cohorts) == 0 {
		bad("cohorts", "at least one cohort required")
	}
	seen := map[string]bool{}
	for i, c := range s.Cohorts {
		p := fmt.Sprintf("cohorts[%d]", i)
		if c.Name == "" {
			bad(p+".name", "required")
		} else if seen[c.Name] {
			bad(p+".name", "duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if c.SLOClass == "" {
			bad(p+".slo_class", "required")
		}
		if c.Requests <= 0 {
			bad(p+".requests", "must be > 0, got %d", c.Requests)
		}
		validateArrival(p+".arrival", c.Arrival, bad)
		validateSize(p+".size", c.Size, bad)
	}
	return errs.Err()
}

func validateArrival(p string, a Arrival, bad func(string, string, ...any)) {
	switch a.Process {
	case ProcessASAP:
	case ProcessConstant, ProcessPoisson:
		if a.RatePerSec <= 0 {
			bad(p+".rate_per_sec", "process %q needs rate_per_sec > 0", a.Process)
		}
	case ProcessDiurnal:
		if a.PeriodSec <= 0 {
			bad(p+".period_sec", "diurnal needs period_sec > 0")
		}
		if len(a.RatesPerSec) == 0 {
			bad(p+".rates_per_sec", "diurnal needs at least one period rate")
		}
		peak := 0.0
		for j, r := range a.RatesPerSec {
			if r < 0 {
				bad(fmt.Sprintf("%s.rates_per_sec[%d]", p, j), "rate must be >= 0, got %g", r)
			}
			if r > peak {
				peak = r
			}
		}
		if peak == 0 && len(a.RatesPerSec) > 0 {
			bad(p+".rates_per_sec", "all period rates are zero")
		}
	case ProcessBurst:
		if a.BurstSize <= 0 {
			bad(p+".burst_size", "burst needs burst_size > 0")
		}
		if a.IntervalSec <= 0 {
			bad(p+".interval_sec", "burst needs interval_sec > 0")
		}
	case "":
		bad(p+".process", "required (asap | constant | poisson | diurnal | burst)")
	default:
		bad(p+".process", "unknown process %q (want asap | constant | poisson | diurnal | burst)", a.Process)
	}
}

func validateSize(p string, z Size, bad func(string, string, ...any)) {
	switch {
	case z.Workload == "" && len(z.Workloads) == 0:
		bad(p, "one of workload or workloads required")
	case z.Workload != "" && len(z.Workloads) > 0:
		bad(p, "workload and workloads are mutually exclusive")
	}
	check := func(path, name string) {
		if _, err := workloads.ByName(name); err != nil {
			bad(path, "unknown workload %q", name)
		}
	}
	if z.Workload != "" {
		check(p+".workload", z.Workload)
	}
	for j, w := range z.Workloads {
		wp := fmt.Sprintf("%s.workloads[%d]", p, j)
		if w.Name == "" {
			bad(wp+".name", "required")
		} else {
			check(wp+".name", w.Name)
		}
		if w.Weight < 0 {
			bad(wp+".weight", "must be >= 0, got %g", w.Weight)
		}
	}
	if z.Policy != "" && z.Policy != "all" {
		known := false
		for _, n := range harness.PolicyNames {
			if n == z.Policy {
				known = true
			}
		}
		if !known {
			bad(p+".policy", "unknown policy %q (want all | %s)", z.Policy, strings.Join(harness.PolicyNames, " | "))
		}
	}
	if z.Scale < 0 {
		bad(p+".scale", "must be >= 0, got %d", z.Scale)
	}
	for j, sc := range z.Scales {
		if sc <= 0 {
			bad(fmt.Sprintf("%s.scales[%d]", p, j), "must be > 0, got %d", sc)
		}
	}
	if z.SMs < 0 {
		bad(p+".sms", "must be >= 0, got %d", z.SMs)
	}
	if z.SeedPool < 0 {
		bad(p+".seed_pool", "must be >= 0, got %d", z.SeedPool)
	}
}

// Identity fingerprints the spec: an FNV-1a hash over its canonical
// JSON form, seed included (same spec + seed ⇒ same schedule ⇒ same
// identity). benchreg stamps it into load sections so -compare
// never diffs load phases produced by different traffic.
func (s *Spec) Identity() string {
	data, _ := json.Marshal(s)
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}
