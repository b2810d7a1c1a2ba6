package obs_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"regmutex/internal/obs"
)

// within asserts got is inside the histogram's ~19% relative bucket
// error of want (plus a little slack for edge landings).
func within(t *testing.T, label string, got, want float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s = %v, want 0", label, got)
		}
		return
	}
	if rel := math.Abs(got-want) / want; rel > 0.25 {
		t.Fatalf("%s = %v, want %v (±25%%)", label, got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h obs.Histogram
	// 1..1000 milliseconds, uniformly: p50 ≈ 0.5s, p90 ≈ 0.9s, p99 ≈ 0.99s.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	within(t, "sum", s.Sum, 500.5)
	within(t, "mean", s.Mean(), 0.5005)
	if s.Max != 1.0 {
		t.Fatalf("max = %v, want 1.0 exactly", s.Max)
	}
	within(t, "p50", s.Quantile(0.50), 0.5)
	within(t, "p90", s.Quantile(0.90), 0.9)
	within(t, "p99", s.Quantile(0.99), 0.99)
	// Quantiles never exceed the exact observed max.
	if q := s.Quantile(1.0); q > s.Max {
		t.Fatalf("p100 = %v exceeds max %v", q, s.Max)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h obs.Histogram
	for _, v := range []float64{0, -3, math.NaN(), 1e-300, 1e300} {
		h.Observe(v) // clamped, never panics
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	var empty obs.HistogramSnapshot
	if q := empty.Quantile(0.99); q != 0 {
		t.Fatalf("empty p99 = %v, want 0", q)
	}
	if m := empty.Mean(); m != 0 {
		t.Fatalf("empty mean = %v, want 0", m)
	}
}

// TestHistogramQuantileEdgeCases pins Quantile's contract at the
// boundaries: empty snapshots, a single sample, q=0 and q=1, and
// quantiles of merged snapshots. The hypothesis engine (internal/hypo)
// aggregates seed values through these paths, so their behavior is part
// of the report-determinism contract.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty obs.HistogramSnapshot
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	var one obs.Histogram
	one.Observe(0.25)
	s := one.Snapshot()
	// Every quantile of a single-sample histogram is that sample's
	// bucket, capped at the exact max — so exactly the sample here.
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got != 0.25 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 0.25", q, got)
		}
	}

	// q=0 clamps the target to the first observation; q=1 lands on the
	// last and is capped at the exact observed max.
	var h obs.Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s = h.Snapshot()
	lo, hi := s.Quantile(0), s.Quantile(1)
	if lo <= 0 || lo > 1.25 {
		t.Fatalf("Quantile(0) = %v, want the first bucket (~1)", lo)
	}
	if hi != s.Max || hi != 100 {
		t.Fatalf("Quantile(1) = %v, want exact max 100", hi)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this is the lock-free contract, and the totals must
// be exact (no lost updates).
func TestHistogramConcurrent(t *testing.T) {
	var h obs.Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) / 1000)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var wantSum float64
	for w := 0; w < workers; w++ {
		wantSum += float64(w+1) / 1000 * per
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v (lost updates)", s.Sum, wantSum)
	}
	if s.Max != float64(workers)/1000 {
		t.Fatalf("max = %v, want %v", s.Max, float64(workers)/1000)
	}
}

// TestRegistrySameInstanceUnderRace: concurrent registration of the
// same name must converge on one shared instance for every metric
// kind — the increments all land on the same counter.
func TestRegistrySameInstanceUnderRace(t *testing.T) {
	r := obs.NewRegistry()
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("shared.counter").Inc()
			r.Gauge("shared.gauge").Add(1)
			r.Histogram("shared.hist").Observe(0.5)
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers {
		t.Fatalf("counter = %d, want %d (split instances?)", got, workers)
	}
	if got := r.Gauge("shared.gauge").Value(); got != workers {
		t.Fatalf("gauge = %v, want %d", got, workers)
	}
	if got := r.Histogram("shared.hist").Snapshot().Count; got != workers {
		t.Fatalf("histogram count = %d, want %d", got, workers)
	}
	if r.Histogram("shared.hist") != r.Histogram("shared.hist") {
		t.Fatal("Histogram returned distinct instances for one name")
	}
}

func TestRegistryHistogramSnapshotMetrics(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("job.run_seconds")
	for i := 0; i < 10; i++ {
		h.Observe(0.25)
	}
	rep := r.Snapshot()
	if v, ok := rep.Get("job.run_seconds.count"); !ok || v != 10 {
		t.Fatalf("count metric = %v, %v", v, ok)
	}
	if v, ok := rep.Get("job.run_seconds.p99"); !ok || v <= 0 {
		t.Fatalf("p99 metric = %v, %v", v, ok)
	}
	var csv bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "job.run_seconds.count,histogram,10") {
		t.Fatalf("CSV missing histogram row:\n%s", csv.String())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("service.jobs_accepted").Add(3)
	r.Gauge("bfs/static.cycles").Set(1234) // label-unsafe name
	h := r.Histogram("http.latency.v1_jobs")
	h.Observe(0.001)
	h.Observe(0.004)
	h.Observe(0.100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE service_jobs_accepted counter\n",
		`service_jobs_accepted{name="service.jobs_accepted"} 3` + "\n",
		"# TYPE bfs_static_cycles gauge\n",
		`bfs_static_cycles{name="bfs/static.cycles"} 1234` + "\n",
		"# TYPE http_latency_v1_jobs histogram\n",
		`http_latency_v1_jobs_bucket{name="http.latency.v1_jobs",le="+Inf"} 3` + "\n",
		`http_latency_v1_jobs_count{name="http.latency.v1_jobs"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative and end at the total count.
	if !promBucketsCumulative(t, out, "http_latency_v1_jobs_bucket", 3) {
		t.Fatalf("buckets not cumulative:\n%s", out)
	}
	// Deterministic: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("two exports of an unchanged registry differ")
	}
}

// promBucketsCumulative parses every line of the named bucket series
// and checks the counts never decrease and finish at total.
func promBucketsCumulative(t *testing.T, out, series string, total int64) bool {
	t.Helper()
	last := int64(-1)
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, series+"{") {
			continue
		}
		n++
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			return false
		}
		last = v
	}
	return n > 1 && last == total
}

func TestPromNameEscaping(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(`weird"name\with` + "\nnewline").Inc()
	r.Counter("9starts.with.digit").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `name="weird\"name\\with\nnewline"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE _9starts_with_digit counter\n") {
		t.Errorf("leading digit not prefixed:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		name := line
		if strings.HasPrefix(line, "# TYPE ") {
			name = strings.Fields(line)[2]
		} else if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for j, c := range name {
			valid := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(j > 0 && c >= '0' && c <= '9')
			if !valid {
				t.Fatalf("invalid char %q in exposed metric name %q (line %q)", c, name, line)
			}
		}
	}
}

func TestNewLoggerAndLevels(t *testing.T) {
	var buf bytes.Buffer
	lvl, err := obs.ParseLogLevel("warn")
	if err != nil {
		t.Fatal(err)
	}
	l, err := obs.NewLogger(&buf, obs.LogJSON, lvl)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept", "component", "test")
	if out := buf.String(); strings.Contains(out, "dropped") || !strings.Contains(out, `"component":"test"`) {
		t.Fatalf("level filtering or attrs broken:\n%s", out)
	}
	if _, err := obs.NewLogger(&buf, "xml", lvl); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := obs.ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	obs.NopLogger().Error("nowhere") // must not panic
}
