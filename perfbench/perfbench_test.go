package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"regmutex/internal/workloads"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests check the
// printed metrics against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMetrics asserts that got holds exactly the declared metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", label, w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", label, w.Name, m.Value)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var declared []string
	for _, w := range f.Workload {
		declared = append(declared, w.Name)
	}
	if got := workloadNames(); len(got) != len(declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for i, name := range workloadNames() {
		if declared[i] != name {
			t.Errorf("workload %d is %s, BENCHMARK.json declares %s", i, name, declared[i])
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that every declared metric is printed with its unit, that no op
// failed, and that the traced ledger conserves op time.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	for _, def := range benchWorkloads {
		res, err := runUntraced(def, 11, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", def.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, def.name, res.Metrics, f.EndToEnd)
	}

	primary, _ := workloadByName("compile")
	res, err := runTraced(primary, 11, 800*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
	}
	checkMetrics(t, "traced", res.Metrics, f.PerLayer)
	for _, name := range workloadNames() {
		if v := res.Metrics["failed_frac."+name].Value; v != 0 {
			t.Errorf("failed_frac.%s = %v", name, v)
		}
		if v := res.Metrics["unattributed_frac."+name].Value; math.Abs(v) > conservationTolerance {
			t.Errorf("unattributed_frac.%s = %v, tolerance %v", name, v, conservationTolerance)
		}
	}
	// The exact counts are guards: they equal the pins.
	if got, want := res.Metrics["sim.cycles.static"].Value, float64(pinnedPassCycles("static")); got != want {
		t.Errorf("sim.cycles.static = %v, pinned %v", got, want)
	}
}

func pinnedPassCycles(policy string) int64 {
	var sum int64
	for _, w := range workloads.Fig7Set() {
		sum += mustPins().Sim[w.Name+"/"+policy].Cycles
	}
	return sum
}

// streamShape summarizes the first n requests of a stream.
type streamShape struct {
	hitShare     float64
	missKernels  map[string]int
	distinctMiss bool
}

func shapeOf(s *stream, n uint64) streamShape {
	sh := streamShape{missKernels: map[string]int{}, distinctMiss: true}
	seen := map[uint64]bool{}
	for _, h := range s.hot {
		seen[h.seed] = true
	}
	hits := 0
	for i := uint64(0); i < n; i++ {
		r := s.at(i)
		if r.hit {
			hits++
			continue
		}
		sh.missKernels[r.kernel]++
		if seen[r.seed] {
			sh.distinctMiss = false
		}
		seen[r.seed] = true
	}
	sh.hitShare = float64(hits) / float64(n)
	return sh
}

func TestServeMixRepeatShare(t *testing.T) {
	const n = 64 * blockLen * 16 // 64 full runs of 16 misses
	s := newStream(7)
	sh := shapeOf(s, n)
	if want := float64(blockLen-1) / blockLen; sh.hitShare != want {
		t.Errorf("hit share %v, designed %v", sh.hitShare, want)
	}
	if len(sh.missKernels) != len(workloads.All()) {
		t.Errorf("misses cover %d kernels, want all %d", len(sh.missKernels), len(workloads.All()))
	}
	for k, c := range sh.missKernels {
		if c != 64 {
			t.Errorf("kernel %s missed %d times, want 64 (one per run of 16)", k, c)
		}
	}
	if !sh.distinctMiss {
		t.Error("a miss repeated a seed already in the stream")
	}
	if len(s.hot) != len(workloads.All()) || len(s.hot)*5 > memoLimit {
		t.Errorf("hot set of %d fingerprints: want one per kernel, inside the memo limit %d", len(s.hot), memoLimit)
	}
	// Every block of four holds exactly one miss.
	for b := uint64(0); b < 256; b++ {
		misses := 0
		for i := b * blockLen; i < (b+1)*blockLen; i++ {
			if !s.at(i).hit {
				misses++
			}
		}
		if misses != 1 {
			t.Fatalf("block %d has %d misses", b, misses)
		}
	}
}

func TestServeMixSeedChangesStream(t *testing.T) {
	const n = 16 * blockLen * 16
	a, b := newStream(7), newStream(8)
	differ := 0
	for i := uint64(0); i < n; i++ {
		if a.at(i) != b.at(i) {
			differ++
		}
		if a.at(i) != newStream(7).at(i) {
			t.Fatalf("request %d differs between two streams of seed 7", i)
		}
	}
	if differ < n/2 {
		t.Errorf("seeds 7 and 8 share %d of %d requests", n-differ, n)
	}
	sa, sb := shapeOf(a, n), shapeOf(b, n)
	if sa.hitShare != sb.hitShare || len(sa.missKernels) != len(sb.missKernels) {
		t.Errorf("shapes differ: %+v vs %+v", sa, sb)
	}
	for k, c := range sa.missKernels {
		if sb.missKernels[k] != c {
			t.Errorf("kernel %s: %d misses under seed 7, %d under seed 8", k, c, sb.missKernels[k])
		}
	}
}

// TestPinsHoldForEverySeed checks the assumption the pins rest on:
// simulated outcomes do not depend on the input values, so one pin per
// kernel×policy serves every seed the benchmark generates.
func TestPinsHoldForEverySeed(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bfs", "sad", "mergesort"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"static", "regmutex", "rfv"} {
			for _, seed := range []uint64{1, mix(5, 2, 9)} {
				st, err := directRun(w, policy, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := pinOfStats(st), pins.Sim[name+"/"+policy]; got != want {
					t.Errorf("%s/%s seed %d: %+v, pinned %+v", name, policy, seed, got, want)
				}
			}
		}
	}
}

func TestPercentileMatchesInclusiveQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 7, 6, 9, 8}
	// statistics.quantiles(range(1, 11), n=4, method="inclusive")
	for q, want := range map[float64]float64{0.25: 3.25, 0.5: 5.5, 0.75: 7.75, 0.9: 9.1} {
		if got := percentile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}
