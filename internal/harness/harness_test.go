package harness

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns options that keep experiment tests fast while preserving
// the machinery under test.
func tiny() Options { return Options{Scale: 16, Seed: 7, NumSMs: 2} }

func TestTable1(t *testing.T) {
	rows, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	matches := 0
	for _, r := range rows {
		if r.Bs <= 0 || r.Bs > r.RegsRounded {
			t.Errorf("%s: Bs = %d out of range", r.Name, r.Bs)
		}
		if r.Matches {
			matches++
		}
	}
	// 13 of 16 match Table I exactly; dwt2d, lavamd, mergesort deviate
	// (documented in EXPERIMENTS.md).
	if matches < 13 {
		t.Errorf("only %d/16 Table I matches", matches)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "bfs") {
		t.Error("printout missing applications")
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.OccAfter < r.OccBefore {
			t.Errorf("%s: occupancy decreased %f -> %f", r.Name, r.OccBefore, r.OccAfter)
		}
		if r.BaselineCycles <= 0 || r.Cycles <= 0 {
			t.Errorf("%s: missing cycles", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "average") {
		t.Error("printout missing average row")
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	var incNo, incRM []float64
	for _, r := range rows {
		incNo = append(incNo, r.IncreaseNoRM)
		incRM = append(incRM, r.IncreaseRM)
	}
	// The headline claim: RegMutex recovers most of the halving loss.
	if mean(incRM) >= mean(incNo) {
		t.Errorf("RegMutex did not help on the half RF: %f vs %f", mean(incRM), mean(incNo))
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty printout")
	}
}

func TestFig9Shape(t *testing.T) {
	for _, tc := range []struct {
		name string
		half bool
		run  func(Options) ([]CmpResult, error)
	}{{"fig9a", false, Fig9a}, {"fig9b", true, Fig9b}} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := tc.run(tiny())
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 8 {
				t.Fatalf("rows = %d, want 8", len(rows))
			}
			var owf, rfv, rm []float64
			for _, r := range rows {
				if r.Err != nil || len(r.TechErr) > 0 {
					t.Errorf("%s: failed runs: %v %v", r.Name, r.Err, r.TechErr)
				}
				// Only the half-RF study has a no-technique column.
				if (r.NoTech != 0) != tc.half {
					t.Errorf("%s: no-technique cycles = %d on half=%v", r.Name, r.NoTech, tc.half)
				}
				owf = append(owf, reductionPct(r.Baseline, r.OWF))
				rfv = append(rfv, reductionPct(r.Baseline, r.RFV))
				rm = append(rm, reductionPct(r.Baseline, r.RegMutex))
			}
			// Paper ordering: OWF << RegMutex <= RFV (within tolerance);
			// on the half RF the reductions are negated increases.
			if mean(owf) > mean(rm) {
				t.Errorf("OWF (%f) should not beat RegMutex (%f)", mean(owf), mean(rm))
			}
			if mean(rfv) < mean(rm)-5 {
				t.Errorf("RFV (%f) should be at least comparable to RegMutex (%f)", mean(rfv), mean(rm))
			}
			var buf bytes.Buffer
			PrintFig9(&buf, rows, tc.half)
			if buf.Len() == 0 {
				t.Error("empty printout")
			}
		})
	}
}

func TestEsSweep(t *testing.T) {
	rows, err := EsSweep(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.HeuristicEs == 0 {
			t.Errorf("%s: no heuristic pick", r.Name)
		}
		feasible := 0
		prevOcc := -1.0
		for _, es := range SweepEsValues {
			p := r.Points[es]
			if p == nil {
				continue
			}
			feasible++
			// Figure 11a: occupancy is monotone non-decreasing in |Es|.
			if p.Occupancy < prevOcc-1e-9 {
				t.Errorf("%s: occupancy decreased at Es=%d", r.Name, es)
			}
			prevOcc = p.Occupancy
			if p.AcquireRate < 0 || p.AcquireRate > 1 {
				t.Errorf("%s: acquire rate %f out of range", r.Name, p.AcquireRate)
			}
		}
		if feasible == 0 {
			t.Errorf("%s: no feasible sweep point", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintFig10(&buf, rows)
	PrintFig11(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty printouts")
	}
}

func TestFig12And13(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		name string
		half bool
		run  func(Options) ([]PairedResult, error)
	}{{"fig12a", false, Fig12a}, {"fig12b", true, Fig12b}} {
		rows, err := tc.run(tiny())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != 8 {
			t.Fatalf("%s: rows = %d, want 8", tc.name, len(rows))
		}
		for _, r := range rows {
			if r.BaselineCycles == 0 || r.DefaultCycles == 0 || r.PairedCycles == 0 || r.PairedOcc <= 0 {
				t.Errorf("%s %s: empty row %+v", tc.name, r.Name, r)
			}
		}
		PrintFig12(&buf, rows, tc.half)
	}

	f13, err := Fig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f13) != 16 {
		t.Fatalf("fig13 rows = %d, want 16", len(f13))
	}
	for _, r := range f13 {
		if r.DefaultRate < 0 || r.DefaultRate > 1 || r.PairedRate < 0 || r.PairedRate > 1 {
			t.Errorf("%s: rates out of range", r.Name)
		}
	}
	PrintFig13(&buf, f13)
	if buf.Len() == 0 {
		t.Error("empty printouts")
	}
}

func TestFig1Traces(t *testing.T) {
	rows, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig1Apps) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Fig1Apps))
	}
	for _, r := range rows {
		if len(r.Trace) < 50 {
			t.Errorf("%s: suspiciously short trace (%d)", r.Name, len(r.Trace))
		}
		lo, hi := 2.0, -1.0
		for _, v := range r.Trace {
			if v < 0 || v > 1 {
				t.Fatalf("%s: utilisation %f out of [0,1]", r.Name, v)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		// Figure 1's whole point: utilisation fluctuates.
		if hi-lo < 0.2 {
			t.Errorf("%s: trace does not fluctuate (min %f max %f)", r.Name, lo, hi)
		}
	}
	var buf bytes.Buffer
	PrintFig1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty printout")
	}
}

func TestFig2Timeline(t *testing.T) {
	tl, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// The figure's story: RegMutex overlaps the two warps.
	if tl.RegMutexCycles >= tl.StaticCycles {
		t.Errorf("RegMutex (%d) should beat static (%d) on the toy machine",
			tl.RegMutexCycles, tl.StaticCycles)
	}
	acquires := 0
	for _, ev := range tl.Events {
		if ev.Kind == "acquire" {
			acquires++
		}
	}
	if acquires < 4 {
		t.Errorf("expected repeated acquires, saw %d", acquires)
	}
	var buf bytes.Buffer
	PrintFig2(&buf, tl)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("printout missing speedup")
	}
}

func TestFig3Listing(t *testing.T) {
	var buf bytes.Buffer
	if err := PrintFig3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "live(") || !strings.Contains(out, "dwt2d") && !strings.Contains(out, "DWT2D") {
		t.Errorf("unexpected listing:\n%s", out[:min(300, len(out))])
	}
}

func TestStoragePrint(t *testing.T) {
	var buf bytes.Buffer
	PrintStorage(&buf)
	for _, want := range []string{"384 bits", "81x", "24 bits"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("storage printout missing %q", want)
		}
	}
}

func TestCompactSetRendering(t *testing.T) {
	// compactSet is used by the Figure 3 listing.
	got := compactSet(0)
	if got != "-" {
		t.Errorf("empty set rendered %q", got)
	}
}

func TestEnergyStudy(t *testing.T) {
	rows, err := Energy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.EnergySavePct <= 0 {
			t.Errorf("%s: halving the RF with RegMutex must save RF energy (%f%%)", r.Name, r.EnergySavePct)
		}
		if r.FullRF.TotalUJ <= 0 || r.HalfRF.TotalUJ <= 0 {
			t.Errorf("%s: degenerate energy report", r.Name)
		}
	}
	var buf bytes.Buffer
	PrintEnergy(&buf, rows)
	if !strings.Contains(buf.String(), "EDP") {
		t.Error("printout missing EDP column")
	}
}

func TestGeneralityStudy(t *testing.T) {
	rows, err := Generality(tiny())
	if err != nil {
		t.Fatal(err) // includes the non-intrusiveness assertion
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	active := 0
	for _, r := range rows {
		if !r.Disabled {
			active++
			if r.OccAfter < r.OccBefore {
				t.Errorf("%s: occupancy decreased on the K20", r.Name)
			}
		}
	}
	if active == 0 {
		t.Error("no kernel remained register-limited on the K20; the generality claim has no witness")
	}
	var buf bytes.Buffer
	PrintGenerality(&buf, rows)
	if !strings.Contains(buf.String(), "untouched") {
		t.Error("printout missing untouched kernels")
	}
}

func TestSeedStability(t *testing.T) {
	rows, err := SeedStability(tiny(), []uint64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if len(r.Reductions) != 2 {
			t.Errorf("%s: %d seed measurements, want 2", r.Name, len(r.Reductions))
		}
		if r.Max < r.Min || r.Mean < r.Min-1e-9 || r.Mean > r.Max+1e-9 {
			t.Errorf("%s: inconsistent stats %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	PrintSeedStability(&buf, rows)
	if !strings.Contains(buf.String(), "spread") {
		t.Error("printout missing spread")
	}
}
