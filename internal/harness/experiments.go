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
// study machine and compares against the paper's Table I.
func Table1(o Options) ([]Table1Row, error) {
	o = o.normalize()
	type pending struct {
		w *workloads.Workload
		k *isa.Kernel
		f *runpool.Future
	}
	var pend []pending
	for _, w := range workloads.All() {
		w := w
		machine := occupancy.GTX480()
		if !w.RegisterLimited {
			machine = occupancy.GTX480Half()
		}
		k := w.Build(o.Scale)
		key := fmt.Sprintf("transform|%016x|%+v", k.Fingerprint(), machine)
		pend = append(pend, pending{w: w, k: k, f: o.Pool.SubmitKeyed(key, func() (any, error) {
			res, err := core.Transform(k, core.Options{Config: machine})
			if err != nil {
				return nil, fmt.Errorf("table1 %s: %w", w.Name, err)
			}
			return res, nil
		})})
	}
	var rows []Table1Row
	for _, p := range pend {
		v, err := p.f.Wait()
		if err != nil {
			return nil, err
		}
		res := v.(*core.Result)
		bs := res.Split.Bs
		if res.Disabled() {
			bs = p.k.AllocRegs()
		}
		rows = append(rows, Table1Row{
			Name: p.w.Name, Regs: p.k.NumRegs, RegsRounded: p.k.AllocRegs(),
			Bs: bs, PaperRegs: p.w.PaperRegs, PaperBs: p.w.PaperBs,
			Matches: bs == p.w.PaperBs,
		})
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
	type pending struct {
		w        *workloads.Workload
		base, rm Pending
	}
	var pend []pending
	for _, w := range workloads.Fig7Set() {
		spec := o.Spec(cfg, w, w.Build(o.Scale))
		pend = append(pend, pending{
			w:    w,
			base: Submit(o.Ctx, spec, "static"),
			rm:   Submit(o.Ctx, spec, "regmutex"),
		})
	}
	var out []AppResult
	for _, p := range pend {
		base, err := p.base.Wait(o.Ctx)
		if err != nil {
			out = append(out, AppResult{Name: p.w.Name, Err: err})
			continue
		}
		rm, err := p.rm.Wait(o.Ctx)
		if err != nil {
			out = append(out, AppResult{Name: p.w.Name, Err: err})
			continue
		}
		out = append(out, AppResult{
			Name:           p.w.Name,
			BaselineCycles: base.Stats.Cycles,
			Cycles:         rm.Stats.Cycles,
			ReductionPct:   reductionPct(base.Stats.Cycles, rm.Stats.Cycles),
			OccBefore:      rm.BaselineOcc.Occupancy,
			OccAfter:       rm.RegMutexOcc.Occupancy,
			AcquireRate:    rm.Stats.AcquireSuccessRate(),
			Split:          rm.Split,
		})
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
		if r.Err != nil {
			fmt.Fprintf(wr, "%-16s %12s\n", r.Name, "ERR("+ErrKind(r.Err)+")")
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
	type pending struct {
		w                 *workloads.Workload
		fullF, halfF, rmF Pending
	}
	var pend []pending
	for _, w := range workloads.Fig8Set() {
		k := w.Build(o.Scale)
		halfSpec := o.Spec(half, w, k)
		pend = append(pend, pending{
			w:     w,
			fullF: Submit(o.Ctx, o.Spec(full, w, k), "static"),
			halfF: Submit(o.Ctx, halfSpec, "static"),
			rmF:   Submit(o.Ctx, halfSpec, "regmutex"),
		})
	}
	var out []Fig8Result
	for _, p := range pend {
		fullRun, err := p.fullF.Wait(o.Ctx)
		if err != nil {
			out = append(out, Fig8Result{Name: p.w.Name, Err: err})
			continue
		}
		halfRun, err := p.halfF.Wait(o.Ctx)
		if err != nil {
			out = append(out, Fig8Result{Name: p.w.Name, Err: err})
			continue
		}
		rm, err := p.rmF.Wait(o.Ctx)
		if err != nil {
			out = append(out, Fig8Result{Name: p.w.Name, Err: err})
			continue
		}
		fullCycles := fullRun.Stats.Cycles
		out = append(out, Fig8Result{
			Name:           p.w.Name,
			FullRFCycles:   fullCycles,
			HalfNoRMCycles: halfRun.Stats.Cycles,
			HalfRMCycles:   rm.Stats.Cycles,
			IncreaseNoRM:   increasePct(fullCycles, halfRun.Stats.Cycles),
			IncreaseRM:     increasePct(fullCycles, rm.Stats.Cycles),
			OccHalfNoRM:    rm.BaselineOcc.Occupancy,
			OccHalfRM:      rm.RegMutexOcc.Occupancy,
			AcquireRate:    rm.Stats.AcquireSuccessRate(),
			Split:          rm.Split,
		})
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
		if r.Err != nil {
			fmt.Fprintf(wr, "%-16s %12s\n", r.Name, "ERR("+ErrKind(r.Err)+")")
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
	// Err is set when the reference baseline itself failed — there is
	// nothing to compare against, so the whole row renders as ERR.
	Err error
	// TechErr records per-technique failures by column ("none", "owf",
	// "rfv", "regmutex"); the row's other columns still render, so one
	// wedged technique doesn't take down the sweep.
	TechErr map[string]error
}

// setTechErr records one technique column's failure on the row.
func (r *CmpResult) setTechErr(col string, err error) {
	if r.TechErr == nil {
		r.TechErr = map[string]error{}
	}
	r.TechErr[col] = err
}

// Fig9a compares OWF, RFV, and RegMutex on the baseline architecture over
// the register-limited set (section IV-C, Figure 9a).
func Fig9a(o Options) ([]CmpResult, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	return compareTechniques(o, cfg, cfg, workloads.Fig7Set())
}

// Fig9b repeats the comparison on the half-register-file machine, against
// the full-RF baseline (Figure 9b).
func Fig9b(o Options) ([]CmpResult, error) {
	o = o.normalize()
	full := o.machine(occupancy.GTX480())
	half := o.machine(occupancy.GTX480Half())
	return compareTechniques(o, full, half, workloads.Fig8Set())
}

func compareTechniques(o Options, refCfg, runCfg occupancy.Config, set []*workloads.Workload) ([]CmpResult, error) {
	type pending struct {
		w                         *workloads.Workload
		ref, noTech, rm, owf, rfv Pending
		hasNoTech                 bool
	}
	var pend []pending
	for _, w := range set {
		k := w.Build(o.Scale)
		spec := o.Spec(runCfg, w, k)
		p := pending{
			w:   w,
			ref: Submit(o.Ctx, o.Spec(refCfg, w, k), "static"),
			rm:  Submit(o.Ctx, spec, "regmutex"),
			owf: Submit(o.Ctx, spec, "owf"),
			rfv: Submit(o.Ctx, spec, "rfv"),
		}
		if refCfg.Name != runCfg.Name {
			p.noTech = Submit(o.Ctx, spec, "static")
			p.hasNoTech = true
		}
		pend = append(pend, p)
	}
	var out []CmpResult
	for _, p := range pend {
		r := CmpResult{Name: p.w.Name}
		ref, err := p.ref.Wait(o.Ctx)
		if err != nil {
			r.Err = err
			out = append(out, r)
			continue
		}
		r.Baseline = ref.Stats.Cycles
		// cell fills one technique column, or records its failure.
		cell := func(f Pending, col string, cycles *int64) {
			if run, err := f.Wait(o.Ctx); err != nil {
				r.setTechErr(col, err)
			} else {
				*cycles = run.Stats.Cycles
			}
		}
		if p.hasNoTech {
			cell(p.noTech, "none", &r.NoTech)
		}
		cell(p.rm, "regmutex", &r.RegMutex)
		cell(p.owf, "owf", &r.OWF)
		cell(p.rfv, "rfv", &r.RFV)
		out = append(out, r)
	}
	return out, nil
}

// pctCell renders one technique cell: the percentage when the run
// succeeded (also accumulated into acc for the average line), or
// ERR(<kind>) when it failed.
func pctCell(base, v int64, err error, f func(int64, int64) float64, acc *[]float64) string {
	if err != nil {
		return "ERR(" + ErrKind(err) + ")"
	}
	x := f(base, v)
	*acc = append(*acc, x)
	return fmt.Sprintf("%.1f%%", x)
}

// PrintFig9 renders either comparison figure.
func PrintFig9(wr io.Writer, rows []CmpResult, half bool) {
	if half {
		section(wr, "Figure 9b: technique comparison, half-size RF (increase vs full-RF baseline)")
		fmt.Fprintf(wr, "%-16s %10s %9s %9s %9s %9s\n", "application", "base", "none", "OWF", "RFV", "RegMutex")
		var n, ow, rf, rm []float64
		for _, r := range rows {
			if r.Err != nil {
				fmt.Fprintf(wr, "%-16s %10s\n", r.Name, "ERR("+ErrKind(r.Err)+")")
				continue
			}
			fmt.Fprintf(wr, "%-16s %10d %9s %9s %9s %9s\n", r.Name, r.Baseline,
				pctCell(r.Baseline, r.NoTech, r.TechErr["none"], increasePct, &n),
				pctCell(r.Baseline, r.OWF, r.TechErr["owf"], increasePct, &ow),
				pctCell(r.Baseline, r.RFV, r.TechErr["rfv"], increasePct, &rf),
				pctCell(r.Baseline, r.RegMutex, r.TechErr["regmutex"], increasePct, &rm))
		}
		fmt.Fprintf(wr, "%-16s %10s %8.1f%% %8.1f%% %8.1f%% %8.1f%%  (paper: 22.9/20.6/5.9/10.8)\n",
			"average", "", mean(n), mean(ow), mean(rf), mean(rm))
		return
	}
	section(wr, "Figure 9a: technique comparison on the baseline (cycle reduction)")
	fmt.Fprintf(wr, "%-16s %10s %9s %9s %9s\n", "application", "base", "OWF", "RFV", "RegMutex")
	var ow, rf, rm []float64
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(wr, "%-16s %10s\n", r.Name, "ERR("+ErrKind(r.Err)+")")
			continue
		}
		fmt.Fprintf(wr, "%-16s %10d %9s %9s %9s\n", r.Name, r.Baseline,
			pctCell(r.Baseline, r.OWF, r.TechErr["owf"], reductionPct, &ow),
			pctCell(r.Baseline, r.RFV, r.TechErr["rfv"], reductionPct, &rf),
			pctCell(r.Baseline, r.RegMutex, r.TechErr["regmutex"], reductionPct, &rm))
	}
	fmt.Fprintf(wr, "%-16s %10s %8.1f%% %8.1f%% %8.1f%%  (paper: 1.9/16.2/12.8)\n",
		"average", "", mean(ow), mean(rf), mean(rm))
}
