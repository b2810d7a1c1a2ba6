package harness

import (
	"bytes"
	"strings"
	"testing"

	"regmutex/internal/isa"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// spinWorkload never terminates: a counter loop far beyond any cycle
// budget wedges every policy, so its rows must fail typed without taking
// the rest of the sweep down.
func spinWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name: "spin",
		Build: func(scale int) *isa.Kernel {
			b := isa.NewBuilder("spin", 8, 2, 32)
			b.SetGrid(1)
			b.SetGlobalMem(64)
			b.MovSpecial(0, isa.SpecTID)
			b.Mov(1, isa.Imm(0))
			b.Label("top")
			b.IAdd(1, isa.R(1), isa.Imm(1))
			b.Setp(isa.PReg(0), isa.CmpLT, isa.R(1), isa.Imm(1<<40))
			b.BraIf(isa.PReg(0), "top")
			b.StGlobal(isa.R(0), 0, isa.R(1))
			b.Exit()
			return b.MustKernel()
		},
		Input: func(k *isa.Kernel, seed uint64) []uint64 {
			return make([]uint64, k.GlobalMemWords)
		},
	}
}

// quickWorkload finishes in a few hundred cycles under every policy.
func quickWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name: "quick",
		Build: func(scale int) *isa.Kernel {
			b := isa.NewBuilder("quick", 8, 2, 32)
			b.SetGrid(1)
			b.SetGlobalMem(64)
			b.MovSpecial(0, isa.SpecTID)
			b.IAdd(1, isa.R(0), isa.Imm(1))
			b.StGlobal(isa.R(0), 0, isa.R(1))
			b.Exit()
			return b.MustKernel()
		},
		Input: func(k *isa.Kernel, seed uint64) []uint64 {
			return make([]uint64, k.GlobalMemWords)
		},
	}
}

// TestSweepSurvivesWedgedKernel is the acceptance check for row-level
// error tolerance: with a kernel that wedges in every study's workload
// set, every simulation study still renders its healthy row, renders
// the wedged row as a typed ERR(<kind>) and keeps it out of the
// averages, and RunExperiment counts it.
func TestSweepSurvivesWedgedKernel(t *testing.T) {
	defer func(f7, f8, all func() []*workloads.Workload, f1 []string) {
		fig7Set, fig8Set, allSet, Fig1Apps = f7, f8, all, f1
	}(fig7Set, fig8Set, allSet, Fig1Apps)
	set := func() []*workloads.Workload { return []*workloads.Workload{quickWorkload(), spinWorkload()} }
	fig7Set, fig8Set, allSet, Fig1Apps = set, set, set, []string{"quick", "spin"}

	timing := sim.DefaultTiming()
	timing.MaxCycles = 50_000
	o := Options{Scale: 1, Seed: 7, NumSMs: 2, Jobs: 2, Timing: timing}.normalize()
	studies := []string{"fig1", "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11",
		"fig12a", "fig12b", "fig13", "energy", "seeds", "generality"}
	for _, name := range studies {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			failed, err := RunExperiment(name, o, &buf)
			if err != nil {
				t.Fatalf("study aborted instead of isolating the wedged row: %v", err)
			}
			out := buf.String()
			want := 1
			if name == "fig13" {
				want = 2 // both machines run the set
			}
			if failed != want {
				t.Errorf("RunExperiment counted %d failed rows, want %d:\n%s", failed, want, out)
			}
			var wedged, healthy int
			for _, line := range strings.Split(out, "\n") {
				f := strings.Fields(line)
				switch {
				case len(f) == 0:
				case f[0] == "spin":
					wedged++
					if len(f) != 2 || (f[1] != "ERR(livelock)" && f[1] != "ERR(deadlock)") {
						t.Errorf("wedged row is not a typed ERR row: %q", line)
					}
				case f[0] == "quick":
					healthy++
					if strings.Contains(line, "ERR") {
						t.Errorf("healthy row failed: %q", line)
					}
				}
			}
			if wedged == 0 || healthy == 0 {
				t.Errorf("printout has %d wedged and %d healthy rows:\n%s", wedged, healthy, out)
			}
			if strings.Contains(out, "NaN") {
				t.Errorf("averages corrupted by the failed row:\n%s", out)
			}
		})
	}

	// The healthy row keeps every column's cycles, not just its line.
	for name, run := range map[string]func(Options) ([]CmpResult, error){"fig9a": Fig9a, "fig9b": Fig9b} {
		rows, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range rows {
			if r.Name != "quick" {
				continue
			}
			if r.Err != nil || r.Baseline <= 0 || r.RegMutex <= 0 || r.OWF <= 0 || r.RFV <= 0 ||
				(name == "fig9b" && r.NoTech <= 0) {
				t.Errorf("%s: healthy row missing cycles: %+v", name, r)
			}
		}
	}
}

// TestFig7RendersErrRow checks the two-policy printers handle a failed
// row without disturbing formatting.
func TestFig7RendersErrRow(t *testing.T) {
	rows := []AppResult{
		{Name: "good", BaselineCycles: 1000, Cycles: 900, ReductionPct: 10},
		{Name: "bad", Err: sim.ErrDeadlock},
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	if !strings.Contains(buf.String(), "ERR(deadlock)") {
		t.Fatalf("missing ERR cell:\n%s", buf.String())
	}

	f8 := []Fig8Result{
		{Name: "good", FullRFCycles: 1000, HalfNoRMCycles: 1200, HalfRMCycles: 1100},
		{Name: "bad", Err: sim.ErrLivelock},
	}
	buf.Reset()
	PrintFig8(&buf, f8)
	if !strings.Contains(buf.String(), "ERR(livelock)") {
		t.Fatalf("missing ERR cell:\n%s", buf.String())
	}
}
