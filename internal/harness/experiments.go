package harness

import (
	"fmt"
	"io"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/workloads"
)

// AppResult is one application's outcome in a two-policy comparison.
type AppResult struct {
	Name           string
	BaselineCycles int64
	Cycles         int64
	ReductionPct   float64 // positive = RegMutex faster
	OccBefore      float64 // theoretical occupancy, baseline
	OccAfter       float64 // theoretical occupancy, with RegMutex
	AcquireRate    float64 // successful acquires / attempts
	Split          core.Split
	// Err is set when any run of this row failed (deadlock, livelock,
	// audit violation); the other rows of the sweep are unaffected and
	// the printers render this one as ERR(<kind>).
	Err error
}

// Table1Row is one row of Table I.
type Table1Row struct {
	Name               string
	Regs, RegsRounded  int
	Bs                 int
	PaperRegs, PaperBs int
	Matches            bool
}

// Table1 reruns the |Es| selection heuristic for every workload on its
// study machine and compares against the paper's Table I. It compiles
// and simulates nothing, so a failed transform fails the whole table.
func Table1(o Options) ([]Table1Row, error) {
	o = o.normalize()
	set := workloads.All()
	ks := make([]*isa.Kernel, len(set))
	fs := make([]*runpool.Future, len(set))
	for i, w := range set {
		machine := occupancy.GTX480()
		if !w.RegisterLimited {
			machine = occupancy.GTX480Half()
		}
		k := w.Build(o.Scale)
		ks[i] = k
		key := fmt.Sprintf("transform|%016x|%+v", k.Fingerprint(), machine)
		fs[i] = o.Pool.SubmitKeyed(key, func() (any, error) {
			res, err := core.Transform(k, core.Options{Config: machine})
			if err != nil {
				return nil, fmt.Errorf("table1 %s: %w", w.Name, err)
			}
			return res, nil
		})
	}
	rows := make([]Table1Row, len(set))
	for i, f := range fs {
		v, err := f.Wait()
		if err != nil {
			return nil, err
		}
		w, k, res := set[i], ks[i], v.(*core.Result)
		bs := res.Split.Bs
		if res.Disabled() {
			bs = k.AllocRegs()
		}
		rows[i] = Table1Row{
			Name: w.Name, Regs: k.NumRegs, RegsRounded: k.AllocRegs(),
			Bs: bs, PaperRegs: w.PaperRegs, PaperBs: w.PaperBs,
			Matches: bs == w.PaperBs,
		}
	}
	return rows, nil
}

// PrintTable1 renders Table I.
func PrintTable1(wr io.Writer, rows []Table1Row) {
	section(wr, "Table I: workloads, register demand, and chosen |Bs|")
	fmt.Fprintf(wr, "%-16s %8s %8s %6s %10s %7s\n", "application", "#regs", "(alloc)", "|Bs|", "paper |Bs|", "match")
	for _, r := range rows {
		mark := "yes"
		if !r.Matches {
			mark = "DEV"
		}
		fmt.Fprintf(wr, "%-16s %8d %8d %6d %10d %7s\n", r.Name, r.Regs, r.RegsRounded, r.Bs, r.PaperBs, mark)
	}
}

// Fig7 is the kernel occupancy boost analysis (section IV-A): execution
// cycle reduction and theoretical occupancy with and without RegMutex for
// the eight register-limited applications on the baseline GTX480.
func Fig7(o Options) ([]AppResult, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	set := fig7Set()
	rows := make([][]Cell, len(set))
	for i, w := range set {
		spec := o.Spec(cfg, w, w.Build(o.Scale))
		rows[i] = []Cell{{spec, "static"}, {spec, "regmutex"}}
	}
	out := make([]AppResult, len(set))
	for i, runs := range o.study(rows) {
		if err := rowErr(runs); err != nil {
			out[i] = AppResult{Name: set[i].Name, Err: err}
			continue
		}
		base, rm := runs[0], runs[1]
		out[i] = AppResult{
			Name:           set[i].Name,
			BaselineCycles: base.Stats.Cycles,
			Cycles:         rm.Stats.Cycles,
			ReductionPct:   reductionPct(base.Stats.Cycles, rm.Stats.Cycles),
			OccBefore:      rm.BaselineOcc.Occupancy,
			OccAfter:       rm.RegMutexOcc.Occupancy,
			AcquireRate:    rm.Stats.AcquireSuccessRate(),
			Split:          rm.Split,
		}
	}
	return out, nil
}

// PrintFig7 renders the Figure 7 series.
func PrintFig7(wr io.Writer, rows []AppResult) {
	section(wr, "Figure 7: exec-cycle reduction and occupancy with RegMutex (baseline RF)")
	fmt.Fprintf(wr, "%-16s %12s %12s %9s %9s %9s %8s\n",
		"application", "base cycles", "RM cycles", "red.%", "occ init", "occ RM", "acq ok%")
	var reds []float64
	for _, r := range rows {
		if errRow(wr, r.Name, r.Err) {
			continue
		}
		fmt.Fprintf(wr, "%-16s %12d %12d %8.1f%% %8.0f%% %8.0f%% %7.1f%%\n",
			r.Name, r.BaselineCycles, r.Cycles, r.ReductionPct,
			100*r.OccBefore, 100*r.OccAfter, 100*r.AcquireRate)
		reds = append(reds, r.ReductionPct)
	}
	fmt.Fprintf(wr, "%-16s %34s %7.1f%%   (paper: avg 13%%, max 23%%)\n", "average", "", mean(reds))
}

// Fig8Result is one application of the register-file-size reduction study.
type Fig8Result struct {
	Name           string
	FullRFCycles   int64 // baseline machine, full RF
	HalfNoRMCycles int64 // half RF, no technique
	HalfRMCycles   int64 // half RF, RegMutex
	IncreaseNoRM   float64
	IncreaseRM     float64
	OccHalfNoRM    float64
	OccHalfRM      float64
	AcquireRate    float64
	Split          core.Split
	// Err marks a failed row; see AppResult.Err.
	Err error
}

// Fig8 is the register file size reduction analysis (section IV-B): the
// eight not-register-limited applications on a machine with half the
// register file, with and without RegMutex, measured against the full-RF
// baseline.
func Fig8(o Options) ([]Fig8Result, error) {
	o = o.normalize()
	full := o.machine(occupancy.GTX480())
	half := o.machine(occupancy.GTX480Half())
	set := fig8Set()
	rows := make([][]Cell, len(set))
	for i, w := range set {
		k := w.Build(o.Scale)
		halfSpec := o.Spec(half, w, k)
		rows[i] = []Cell{{o.Spec(full, w, k), "static"}, {halfSpec, "static"}, {halfSpec, "regmutex"}}
	}
	out := make([]Fig8Result, len(set))
	for i, runs := range o.study(rows) {
		if err := rowErr(runs); err != nil {
			out[i] = Fig8Result{Name: set[i].Name, Err: err}
			continue
		}
		fullCycles, halfCycles, rm := runs[0].Stats.Cycles, runs[1].Stats.Cycles, runs[2]
		out[i] = Fig8Result{
			Name:           set[i].Name,
			FullRFCycles:   fullCycles,
			HalfNoRMCycles: halfCycles,
			HalfRMCycles:   rm.Stats.Cycles,
			IncreaseNoRM:   increasePct(fullCycles, halfCycles),
			IncreaseRM:     increasePct(fullCycles, rm.Stats.Cycles),
			OccHalfNoRM:    rm.BaselineOcc.Occupancy,
			OccHalfRM:      rm.RegMutexOcc.Occupancy,
			AcquireRate:    rm.Stats.AcquireSuccessRate(),
			Split:          rm.Split,
		}
	}
	return out, nil
}

// PrintFig8 renders the Figure 8 series.
func PrintFig8(wr io.Writer, rows []Fig8Result) {
	section(wr, "Figure 8: exec-cycle increase on half-size RF, with and without RegMutex")
	fmt.Fprintf(wr, "%-16s %12s %11s %11s %9s %9s %9s %9s\n",
		"application", "full cycles", "half noRM", "half RM", "inc noRM", "inc RM", "occ noRM", "occ RM")
	var incNo, incRM []float64
	for _, r := range rows {
		if errRow(wr, r.Name, r.Err) {
			continue
		}
		fmt.Fprintf(wr, "%-16s %12d %11d %11d %8.1f%% %8.1f%% %8.0f%% %8.0f%%\n",
			r.Name, r.FullRFCycles, r.HalfNoRMCycles, r.HalfRMCycles,
			r.IncreaseNoRM, r.IncreaseRM, 100*r.OccHalfNoRM, 100*r.OccHalfRM)
		incNo = append(incNo, r.IncreaseNoRM)
		incRM = append(incRM, r.IncreaseRM)
	}
	fmt.Fprintf(wr, "%-16s %36s %8.1f%% %8.1f%%  (paper: 23%% vs 9%%)\n", "average", "", mean(incNo), mean(incRM))
}

// CmpResult compares the three techniques on one application.
type CmpResult struct {
	Name     string
	Baseline int64 // static cycles on the study machine's reference
	OWF      int64
	RFV      int64
	RegMutex int64
	NoTech   int64 // only meaningful on the half-RF study
	// Err marks a failed row; see AppResult.Err.
	Err error
}

// Fig9a compares OWF, RFV, and RegMutex on the baseline architecture over
// the register-limited set (section IV-C, Figure 9a).
func Fig9a(o Options) ([]CmpResult, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	return compareTechniques(o, cfg, cfg, fig7Set()), nil
}

// Fig9b repeats the comparison on the half-register-file machine, against
// the full-RF baseline (Figure 9b).
func Fig9b(o Options) ([]CmpResult, error) {
	o = o.normalize()
	full := o.machine(occupancy.GTX480())
	half := o.machine(occupancy.GTX480Half())
	return compareTechniques(o, full, half, fig8Set()), nil
}

// compareTechniques runs static on refCfg and regmutex, owf and rfv on
// runCfg; when the machines differ it adds static on runCfg (the
// "none" column).
func compareTechniques(o Options, refCfg, runCfg occupancy.Config, set []*workloads.Workload) []CmpResult {
	rows := make([][]Cell, len(set))
	for i, w := range set {
		k := w.Build(o.Scale)
		spec := o.Spec(runCfg, w, k)
		rows[i] = []Cell{{o.Spec(refCfg, w, k), "static"}, {spec, "regmutex"}, {spec, "owf"}, {spec, "rfv"}}
		if refCfg.Name != runCfg.Name {
			rows[i] = append(rows[i], Cell{spec, "static"})
		}
	}
	out := make([]CmpResult, len(set))
	for i, runs := range o.study(rows) {
		out[i] = CmpResult{Name: set[i].Name, Err: rowErr(runs)}
		if out[i].Err != nil {
			continue
		}
		out[i].Baseline, out[i].RegMutex = runs[0].Stats.Cycles, runs[1].Stats.Cycles
		out[i].OWF, out[i].RFV = runs[2].Stats.Cycles, runs[3].Stats.Cycles
		if len(runs) == 5 {
			out[i].NoTech = runs[4].Stats.Cycles
		}
	}
	return out
}

// PrintFig9 renders either comparison figure.
func PrintFig9(wr io.Writer, rows []CmpResult, half bool) {
	title, f := "Figure 9a: technique comparison on the baseline (cycle reduction)", reductionPct
	cols, paper := []string{"OWF", "RFV", "RegMutex"}, "1.9/16.2/12.8"
	if half {
		title, f = "Figure 9b: technique comparison, half-size RF (increase vs full-RF baseline)", increasePct
		cols, paper = append([]string{"none"}, cols...), "22.9/20.6/5.9/10.8"
	}
	section(wr, title)
	fmt.Fprintf(wr, "%-16s %10s", "application", "base")
	for _, c := range cols {
		fmt.Fprintf(wr, " %9s", c)
	}
	fmt.Fprintln(wr)
	avgs := make([][]float64, len(cols))
	for _, r := range rows {
		if errRow(wr, r.Name, r.Err) {
			continue
		}
		vals := []int64{r.OWF, r.RFV, r.RegMutex}
		if half {
			vals = append([]int64{r.NoTech}, vals...)
		}
		fmt.Fprintf(wr, "%-16s %10d", r.Name, r.Baseline)
		for j, v := range vals {
			x := f(r.Baseline, v)
			avgs[j] = append(avgs[j], x)
			fmt.Fprintf(wr, " %9s", fmt.Sprintf("%.1f%%", x))
		}
		fmt.Fprintln(wr)
	}
	fmt.Fprintf(wr, "%-16s %10s", "average", "")
	for _, a := range avgs {
		fmt.Fprintf(wr, " %8.1f%%", mean(a))
	}
	fmt.Fprintf(wr, "  (paper: %s)\n", paper)
}
