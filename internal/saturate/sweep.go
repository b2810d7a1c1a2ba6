package saturate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"text/tabwriter"

	"regmutex/internal/obs"
	"regmutex/internal/service"
	"regmutex/internal/workspec"
)

// Options tunes one sweep run.
type Options struct {
	// BaseURL is the gpusimd or gpusimrouter endpoint the sweep drives.
	// Empty skips the live phase entirely (model-only: Costs required).
	BaseURL string
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Compress divides the live drive's arrival offsets (the virtual
	// model is unaffected): 4 replays each rung at 4x speed. 0/1 = real
	// time.
	Compress float64
	// MaxInFlight caps the live drive's concurrent requests (default 8).
	MaxInFlight int
	// Costs overrides calibration with explicit per-fingerprint cycle
	// costs (tests; or replaying a previously calibrated sweep).
	Costs map[uint64]int64
	// Logger narrates progress; nil discards.
	Logger *slog.Logger
}

// StepResult is one ladder rung's outcome, entirely virtual-time.
type StepResult struct {
	Step          int     `json:"step"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	// Arrivals is the rung's full schedule size; Measured the arrivals
	// inside the measure window; Completed the measured jobs finished by
	// the window's end (the goodput numerator).
	Arrivals      int     `json:"arrivals"`
	Measured      int     `json:"measured"`
	Completed     int     `json:"completed"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// Overall end-to-end latency quantiles across measured jobs (µs).
	P50Us int64 `json:"p50_us"`
	P99Us int64 `json:"p99_us"`
	MaxUs int64 `json:"max_us"`
	// Classes decomposes latency per SLO class and stage.
	Classes map[string]*ClassBreakdown `json:"classes"`
}

// Knee outcomes (Report.KneeReason).
const (
	KneeReasonSlope = "goodput_slope" // goodput gain per offered gain fell below threshold
	KneeReasonSLO   = "p99_slo"       // p99 crossed the SLO multiple of step 0
	KneeReasonNone  = ""              // ladder ended before either rule fired
)

// Report is the deterministic sweep outcome: same spec + seed + costs
// in, byte-identical Canonical() out.
type Report struct {
	Name   string   `json:"name"`
	SpecID string   `json:"spec_id"`
	Seed   uint64   `json:"seed"`
	Ladder Ladder   `json:"ladder"`
	Knee   KneeRule `json:"knee"`
	Model  Model    `json:"model"`
	// Calibrated maps each distinct request fingerprint the sweep
	// schedules contain to its cycle cost (the model's service times).
	Calibrated map[string]int64 `json:"calibrated"`
	Steps      []StepResult     `json:"steps"`
	// KneeFound reports whether a rule fired before the ladder ran out;
	// KneeStep is then the last step before it fired (the knee), and
	// KneeReason names the rule that fired at KneeStep+1.
	KneeFound         bool    `json:"knee_found"`
	KneeStep          int     `json:"knee_step"`
	KneeReason        string  `json:"knee_reason,omitempty"`
	KneeOfferedPerSec float64 `json:"knee_offered_per_sec,omitempty"`
	KneeGoodputPerSec float64 `json:"knee_goodput_per_sec,omitempty"`
}

// Canonical renders the report as deterministic JSON bytes (maps
// marshal key-sorted) — the byte-identity witness reruns compare.
func (r *Report) Canonical() []byte {
	data, _ := json.MarshalIndent(r, "", " ")
	return append(data, '\n')
}

// Sweep runs the saturation analysis: compile every rung, calibrate
// per-fingerprint costs (live, unless injected), live-drive each rung
// through the workspec Runner (serving verification — any failed job
// aborts), then detect the knee in the virtual-time model.
func Sweep(ctx context.Context, spec *SweepSpec, o Options) (*Report, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	log := o.Logger
	if log == nil {
		log = obs.NopLogger()
	}

	// Compile every rung up front: schedules are cheap, and calibration
	// wants the union of fingerprints before any live traffic flows.
	scheds := make([]*workspec.Schedule, spec.Ladder.Steps)
	reqs := map[uint64]service.SubmitRequest{}
	for step := range scheds {
		sched, err := workspec.Compile(spec.StepSpec(step))
		if err != nil {
			return nil, fmt.Errorf("saturate: compile step %d: %w", step, err)
		}
		scheds[step] = sched
		for _, it := range sched.Items {
			fp := it.Req.Fingerprint()
			if _, ok := reqs[fp]; !ok {
				reqs[fp] = it.Req
			}
		}
	}

	costs := o.Costs
	if costs == nil {
		if o.BaseURL == "" {
			return nil, fmt.Errorf("saturate: no BaseURL and no injected Costs — nothing to calibrate against")
		}
		var err error
		costs, err = calibrate(ctx, o, reqs, log)
		if err != nil {
			return nil, err
		}
	}
	for fp := range reqs {
		if costs[fp] <= 0 {
			return nil, fmt.Errorf("saturate: no calibrated cost for fingerprint %016x", fp)
		}
	}

	// Live drive: replay every rung against the target. Latencies are
	// deliberately discarded — this phase proves the serving path works
	// at depth (admission, memo, routing, streaming); the first failed
	// job aborts the sweep.
	if o.BaseURL != "" {
		for step, sched := range scheds {
			log.Info("sweep drive", "step", step, "offered_per_sec", spec.OfferedAt(step), "jobs", len(sched.Items))
			if _, err := workspec.Run(ctx, sched, workspec.RunnerOptions{
				BaseURL:     o.BaseURL,
				Client:      o.Client,
				Compress:    o.Compress,
				MaxInFlight: o.MaxInFlight,
				Logger:      log,
			}); err != nil {
				return nil, fmt.Errorf("saturate: step %d drive failed: %w", step, err)
			}
		}
	}

	rep := &Report{
		Name:       spec.Name,
		SpecID:     spec.Identity(),
		Seed:       spec.Seed,
		Ladder:     spec.Ladder,
		Knee:       spec.Knee,
		Model:      spec.Model,
		Calibrated: map[string]int64{},
		KneeStep:   -1,
	}
	for fp, c := range costs {
		if _, ok := reqs[fp]; ok {
			rep.Calibrated[fmt.Sprintf("%016x", fp)] = c
		}
	}
	settleUs := int64(spec.Ladder.SettleSec * 1e6)
	horizonUs := int64((spec.Ladder.SettleSec + spec.Ladder.MeasureSec) * 1e6)
	for step, sched := range scheds {
		jobs := simulateStep(sched, costs, spec.Model, settleUs, horizonUs)
		rep.Steps = append(rep.Steps, summarize(step, spec.OfferedAt(step), jobs, spec.Ladder.MeasureSec, horizonUs))
	}
	detectKnee(rep, spec.Knee)
	return rep, nil
}

// detectKnee walks the ladder and applies the two rules; the knee is
// the last step before the first firing.
func detectKnee(rep *Report, k KneeRule) {
	if len(rep.Steps) < 2 {
		return
	}
	base := rep.Steps[0].P99Us
	for s := 1; s < len(rep.Steps); s++ {
		prev, cur := rep.Steps[s-1], rep.Steps[s]
		reason := KneeReasonNone
		if dOffered := cur.OfferedPerSec - prev.OfferedPerSec; dOffered > 0 {
			slope := (cur.GoodputPerSec - prev.GoodputPerSec) / dOffered
			if slope < k.SlopeThreshold {
				reason = KneeReasonSlope
			}
		}
		if reason == KneeReasonNone && base > 0 && float64(cur.P99Us) > k.SLOMultiple*float64(base) {
			reason = KneeReasonSLO
		}
		if reason != KneeReasonNone {
			rep.KneeFound = true
			rep.KneeStep = s - 1
			rep.KneeReason = reason
			rep.KneeOfferedPerSec = prev.OfferedPerSec
			rep.KneeGoodputPerSec = prev.GoodputPerSec
			return
		}
	}
}

// calibrate learns each distinct fingerprint's cycle cost by submitting
// it once (?wait=1) and summing the per-policy cycles the daemon
// reports. Fingerprints are visited in sorted order so the target's
// memo warms identically on every run.
func calibrate(ctx context.Context, o Options, reqs map[uint64]service.SubmitRequest, log *slog.Logger) (map[uint64]int64, error) {
	client := o.Client
	if client == nil {
		client = http.DefaultClient
	}
	fps := make([]uint64, 0, len(reqs))
	for fp := range reqs {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	log.Info("sweep calibrate", "distinct_fingerprints", len(fps), "target", o.BaseURL)
	costs := make(map[uint64]int64, len(fps))
	for _, fp := range fps {
		view, err := workspec.SubmitWait(ctx, client, o.BaseURL, reqs[fp])
		if err != nil {
			return nil, fmt.Errorf("saturate: calibrate %016x: %w", fp, err)
		}
		// The summed simulation cycles (>= 1) are a pure function of the
		// request fingerprint — the simulator is deterministic — so one
		// measurement is exact, not a sample.
		var cycles int64
		if view.Result != nil {
			for _, row := range view.Result.Rows {
				cycles += row.Cycles
			}
		}
		costs[fp] = max(cycles, 1)
	}
	return costs, nil
}

// WriteReport renders the sweep as a human-readable summary: the
// ladder table with the knee marked, then the per-class per-stage
// breakdown at the knee and at the first rung past it.
func (r *Report) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "saturation sweep %s (spec %s, seed %d)\n", r.Name, r.SpecID, r.Seed)
	fmt.Fprintf(w, "model: %d servers, %d cycles/sec, route %dus, stream %dus\n\n",
		r.Model.Servers, r.Model.CyclesPerSec, r.Model.RouteOverheadUs, r.Model.StreamOverheadUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "step\toffered/s\tgoodput/s\tmeasured\tp50\tp99\tmax\t")
	for _, s := range r.Steps {
		marker := ""
		if r.KneeFound && s.Step == r.KneeStep {
			marker = "  <- knee"
		} else if r.KneeFound && s.Step == r.KneeStep+1 {
			marker = "  <- past knee (" + r.KneeReason + ")"
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%d\t%s\t%s\t%s\t%s\n",
			s.Step, s.OfferedPerSec, s.GoodputPerSec, s.Measured,
			fmtUs(s.P50Us), fmtUs(s.P99Us), fmtUs(s.MaxUs), marker)
	}
	tw.Flush()
	if !r.KneeFound {
		fmt.Fprintf(w, "\nno knee: neither rule fired across %d steps (raise ladder.steps or factor)\n", len(r.Steps))
		return
	}
	fmt.Fprintf(w, "\nknee: %.2f offered jobs/sec -> %.2f goodput jobs/sec (rule %q fired at step %d)\n",
		r.KneeOfferedPerSec, r.KneeGoodputPerSec, r.KneeReason, r.KneeStep+1)
	for _, step := range []int{r.KneeStep, r.KneeStep + 1} {
		if step < 0 || step >= len(r.Steps) {
			continue
		}
		s := r.Steps[step]
		where := "at the knee"
		if step == r.KneeStep+1 {
			where = "past the knee"
		}
		fmt.Fprintf(w, "\nper-stage latency %s (step %d, %.2f offered/s):\n", where, s.Step, s.OfferedPerSec)
		ctw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ctw, "class\tstage\tp50\tp99\tmax")
		classes := make([]string, 0, len(s.Classes))
		for c := range s.Classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			cb := s.Classes[c]
			for _, st := range []struct {
				name string
				q    StageQ
			}{
				{"e2e", cb.E2E}, {"route", cb.Route}, {"queue", cb.Queue},
				{"run", cb.Run}, {"stream", cb.Stream},
			} {
				fmt.Fprintf(ctw, "%s\t%s\t%s\t%s\t%s\n", c, st.name,
					fmtUs(st.q.P50Us), fmtUs(st.q.P99Us), fmtUs(st.q.MaxUs))
			}
		}
		ctw.Flush()
	}
}

func fmtUs(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dus", us)
	}
}
