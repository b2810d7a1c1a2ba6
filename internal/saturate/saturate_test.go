package saturate

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regmutex/internal/service"
	"regmutex/internal/workspec"
)

func testSpec() *SweepSpec {
	return (&SweepSpec{
		Version: SweepVersion,
		Name:    "unit",
		Seed:    42,
		Cohorts: []workspec.Cohort{
			{Name: "interactive", SLOClass: "interactive", Requests: 3,
				Size: workspec.Size{Workload: "bfs", Policy: "static", Scale: 16, SMs: 1}},
			{Name: "batch", SLOClass: "batch", Requests: 1,
				Size: workspec.Size{Workload: "spmv", Policy: "static", Scale: 16, SMs: 1, SeedPool: 2}},
		},
		Ladder: Ladder{StartRatePerSec: 20, Factor: 2, Steps: 4, SettleSec: 0.2, MeasureSec: 1},
		Model:  Model{Servers: 1, CyclesPerSec: 2_000_000, RouteOverheadUs: 200, StreamOverheadUs: 100},
	}).WithDefaults()
}

// stubCosts compiles every rung and assigns each distinct fingerprint a
// deterministic synthetic cost, so model-only sweeps need no daemon.
func stubCosts(t *testing.T, spec *SweepSpec, base int64) map[uint64]int64 {
	t.Helper()
	costs := map[uint64]int64{}
	for step := 0; step < spec.Ladder.Steps; step++ {
		sched, err := workspec.Compile(spec.StepSpec(step))
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range sched.Items {
			fp := it.Req.Fingerprint()
			costs[fp] = base + int64(fp%5_000)
		}
	}
	return costs
}

func TestSweepModelOnlyDeterministic(t *testing.T) {
	spec := testSpec()
	costs := stubCosts(t, spec, 100_000)
	run := func() []byte {
		rep, err := Sweep(context.Background(), spec, Options{Costs: costs})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Canonical()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("sweep report not byte-identical across reruns:\n%s\n---\n%s", a, b)
	}
}

func TestSweepFindsSlopeKnee(t *testing.T) {
	spec := testSpec()
	// ~100ms of service per job on one server caps goodput near 10/s;
	// the ladder offers 20/40/80/160, so the slope rule fires at step 1
	// and the knee is step 0.
	costs := stubCosts(t, spec, 200_000)
	rep, err := Sweep(context.Background(), spec, Options{Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.KneeFound {
		t.Fatalf("no knee found:\n%s", rep.Canonical())
	}
	if rep.KneeReason != KneeReasonSlope {
		t.Fatalf("knee reason %q, want %q", rep.KneeReason, KneeReasonSlope)
	}
	if rep.KneeStep != 0 {
		t.Fatalf("knee step %d, want 0 (goodput %v)", rep.KneeStep,
			[]float64{rep.Steps[0].GoodputPerSec, rep.Steps[1].GoodputPerSec})
	}
	if rep.KneeOfferedPerSec != rep.Steps[0].OfferedPerSec {
		t.Fatalf("knee offered %g != step-0 offered %g", rep.KneeOfferedPerSec, rep.Steps[0].OfferedPerSec)
	}
	// Every step must carry the per-class per-stage decomposition.
	for _, s := range rep.Steps {
		for _, class := range []string{"interactive", "batch"} {
			cb := s.Classes[class]
			if cb == nil || cb.Count == 0 {
				t.Fatalf("step %d missing class %s breakdown", s.Step, class)
			}
			if cb.Route.P99Us != spec.Model.RouteOverheadUs || cb.Stream.P99Us != spec.Model.StreamOverheadUs {
				t.Fatalf("step %d class %s overheads = %+v / %+v", s.Step, class, cb.Route, cb.Stream)
			}
		}
	}
	// Past the knee, queueing dominates: step 3's queue p99 must dwarf
	// the knee step's.
	knee, past := rep.Steps[rep.KneeStep], rep.Steps[len(rep.Steps)-1]
	if past.Classes["interactive"].Queue.P99Us <= knee.Classes["interactive"].Queue.P99Us {
		t.Fatalf("queue p99 did not grow past the knee: %d -> %d",
			knee.Classes["interactive"].Queue.P99Us, past.Classes["interactive"].Queue.P99Us)
	}
	var out bytes.Buffer
	rep.WriteReport(&out)
	for _, want := range []string{"<- knee", "past the knee", "goodput_slope", "interactive", "queue"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report text missing %q:\n%s", want, out.String())
		}
	}
}

func TestDetectKneeSLORule(t *testing.T) {
	rep := &Report{KneeStep: -1, Steps: []StepResult{
		{Step: 0, OfferedPerSec: 10, GoodputPerSec: 10, P99Us: 1_000},
		{Step: 1, OfferedPerSec: 20, GoodputPerSec: 20, P99Us: 2_000},
		{Step: 2, OfferedPerSec: 40, GoodputPerSec: 40, P99Us: 50_000},
	}}
	detectKnee(rep, KneeRule{SlopeThreshold: 0.5, SLOMultiple: 4})
	if !rep.KneeFound || rep.KneeReason != KneeReasonSLO || rep.KneeStep != 1 {
		t.Fatalf("got found=%v reason=%q step=%d, want SLO rule at step 2 -> knee 1",
			rep.KneeFound, rep.KneeReason, rep.KneeStep)
	}
}

func TestDetectKneeNoFiring(t *testing.T) {
	rep := &Report{KneeStep: -1, Steps: []StepResult{
		{Step: 0, OfferedPerSec: 10, GoodputPerSec: 10, P99Us: 1_000},
		{Step: 1, OfferedPerSec: 20, GoodputPerSec: 20, P99Us: 1_100},
	}}
	detectKnee(rep, KneeRule{SlopeThreshold: 0.5, SLOMultiple: 4})
	if rep.KneeFound || rep.KneeStep != -1 {
		t.Fatalf("knee reported on a healthy ladder: %+v", rep)
	}
}

func TestSimulateStepFIFOAccounting(t *testing.T) {
	req := service.SubmitRequest{Workload: "bfs", Policy: "static", Scale: 16}
	sched := &workspec.Schedule{Items: []workspec.Item{
		{Seq: 0, At: 0, SLOClass: "a", Req: req},
		{Seq: 1, At: 0, SLOClass: "a", Req: req},
	}}
	costs := map[uint64]int64{req.Fingerprint(): 10_000_000} // 10ms at 1e9
	m := Model{Servers: 1, CyclesPerSec: 1_000_000_000, RouteOverheadUs: 100, StreamOverheadUs: 50}
	jobs := simulateStep(sched, costs, m, 0, 1_000_000)
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	// Job 0: route 100, no wait, run 10000, stream 50.
	if jobs[0].wait != 0 || jobs[0].run != 10_000 || jobs[0].e2e() != 10_150 {
		t.Fatalf("job0 = %+v (e2e %d)", jobs[0], jobs[0].e2e())
	}
	// Job 1 queues behind job 0: ready at 100, server free at 10100.
	if jobs[1].wait != 10_000 || jobs[1].e2e() != 20_150 {
		t.Fatalf("job1 = %+v (e2e %d)", jobs[1], jobs[1].e2e())
	}
}

func TestQuantilesNearestRank(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(100 - i) // reversed: quantiles must sort
	}
	q := quantiles(vals)
	if q.P50Us != 50 || q.P99Us != 99 || q.MaxUs != 100 {
		t.Fatalf("quantiles = %+v", q)
	}
	if got := quantiles(nil); got != (StageQ{}) {
		t.Fatalf("empty quantiles = %+v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		mutate func(*SweepSpec)
		path   string
	}{
		{func(s *SweepSpec) { s.Cohorts[0].Arrival.Process = workspec.ProcessASAP }, "arrival"},
		{func(s *SweepSpec) { s.Ladder.Steps = 1 }, "ladder.steps"},
		{func(s *SweepSpec) { s.Ladder.StartRatePerSec = 0 }, "ladder.start_rate_per_sec"},
		{func(s *SweepSpec) { s.Knee.SLOMultiple = 0.5 }, "knee.slo_multiple"},
		{func(s *SweepSpec) { s.Model.CyclesPerSec = -1 }, "model.cycles_per_sec"},
		{func(s *SweepSpec) { s.Cohorts[0].Size.Workload = "nope" }, "size.workload"},
		// Findings carry the sweep dialect's label, the derived mix's too.
		{func(s *SweepSpec) { s.Ladder.Steps = 1 }, "saturate: ladder.steps"},
		{func(s *SweepSpec) { s.Cohorts[0].Size.Workload = "nope" }, "saturate: cohorts[0].size.workload"},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mutate(spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.path) {
			t.Fatalf("mutation targeting %q: err = %v", tc.path, err)
		}
	}
}

func TestParseYAMLSweep(t *testing.T) {
	spec, err := Parse([]byte(`
version: 1
name: yaml-sweep
seed: 7
cohorts:
  - name: hot
    slo_class: interactive
    requests: 2
    size:
      workload: bfs
      policy: static
      scale: 16
ladder:
  start_rate_per_sec: 4
  factor: 2
  steps: 3
  measure_sec: 1
model:
  servers: 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Knee.SLOMultiple != 4 || spec.Ladder.Factor != 2 || spec.Model.CyclesPerSec != 10_000_000 {
		t.Fatalf("defaults not resolved: %+v", spec)
	}
	if spec.Identity() == "" || spec.Identity() != spec.Identity() {
		t.Fatal("identity unstable")
	}
}

func TestStepSpecSchedulesDeterministic(t *testing.T) {
	spec := testSpec()
	a, err := workspec.Compile(spec.StepSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := workspec.Compile(spec.StepSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatal("same step compiled differently twice")
	}
	c, err := workspec.Compile(spec.StepSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Canonical(), c.Canonical()) {
		t.Fatal("steps 1 and 2 share a schedule — per-step seeds broken")
	}
	// Step 2 offers twice step 1's rate over the same window.
	if len(c.Items) <= len(a.Items) {
		t.Fatalf("step 2 (%d items) not denser than step 1 (%d)", len(c.Items), len(a.Items))
	}
}

// TestSweepAgainstDaemon is the live integration gate: calibrate and
// drive a tiny ladder against a real loopback daemon, twice, and demand
// byte-identical reports — wall clocks must never leak in.
func TestSweepAgainstDaemon(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 2, PoolWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.Start()
	ts := httptest.NewServer(service.Handler(svc))
	t.Cleanup(ts.Close)

	spec := (&SweepSpec{
		Version: SweepVersion,
		Name:    "live",
		Seed:    11,
		Cohorts: []workspec.Cohort{
			{Name: "hot", SLOClass: "interactive", Requests: 1,
				Size: workspec.Size{Workload: "bfs", Policy: "static", Scale: 16, SMs: 1}},
		},
		Ladder: Ladder{StartRatePerSec: 5, Factor: 2, Steps: 2, SettleSec: 0.1, MeasureSec: 0.4},
		Model:  Model{Servers: 2, CyclesPerSec: 5_000_000},
	}).WithDefaults()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run := func() *Report {
		rep, err := Sweep(ctx, spec, Options{BaseURL: ts.URL, Compress: 20, MaxInFlight: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("live sweep not deterministic:\n%s\n---\n%s", a.Canonical(), b.Canonical())
	}
	if len(a.Calibrated) == 0 {
		t.Fatal("no calibrated costs recorded")
	}
	for fp, c := range a.Calibrated {
		if c <= 1 {
			t.Fatalf("calibrated cost for %s suspiciously small: %d", fp, c)
		}
	}
	if len(a.Steps) != 2 || a.Steps[0].Measured == 0 {
		t.Fatalf("steps malformed: %s", a.Canonical())
	}
}
