package harness

import (
	"fmt"
	"io"
	"sort"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// SweepEsValues is the extended-set sizes of the sensitivity study
// (section IV-D).
var SweepEsValues = []int{2, 4, 6, 8, 10, 12}

// EsPoint is one (application, |Es|) measurement.
type EsPoint struct {
	ReductionPct float64
	Occupancy    float64 // theoretical, with |Bs| = alloc - |Es|
	AcquireRate  float64
	Sections     int
}

// EsSweepRow is one application's sweep (Figures 10 and 11).
type EsSweepRow struct {
	Name        string
	HeuristicEs int
	Points      map[int]*EsPoint // nil entry: configuration infeasible
}

// EsSweep manually sets |Es| to each sweep value for the register-limited
// applications and measures cycle reduction, theoretical occupancy, and
// the successful-acquire ratio.
func EsSweep(o Options) ([]EsSweepRow, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	type pending struct {
		w    *workloads.Workload
		heur *core.Result
		base Pending
		es   map[int]Pending
	}
	var pend []pending
	for _, w := range workloads.Fig7Set() {
		k := w.Build(o.Scale)
		heur, err := core.Transform(k, core.Options{Config: cfg})
		if err != nil {
			return nil, err
		}
		spec := o.Spec(cfg, w, k)
		p := pending{w: w, heur: heur, base: Submit(o.Ctx, spec, "static"), es: map[int]Pending{}}
		for _, es := range SweepEsValues {
			spec.ForceEs = es
			p.es[es] = Submit(o.Ctx, spec, "regmutex")
		}
		pend = append(pend, p)
	}
	var out []EsSweepRow
	for _, p := range pend {
		base, err := p.base.Wait(o.Ctx)
		if err != nil {
			return nil, err
		}
		row := EsSweepRow{Name: p.w.Name, HeuristicEs: p.heur.Split.Es, Points: map[int]*EsPoint{}}
		for _, es := range SweepEsValues {
			rm, err := p.es[es].Wait(o.Ctx)
			if err != nil {
				row.Points[es] = nil // infeasible (deadlock rules, compaction)
				continue
			}
			row.Points[es] = &EsPoint{
				ReductionPct: reductionPct(base.Stats.Cycles, rm.Stats.Cycles),
				Occupancy:    rm.RegMutexOcc.Occupancy,
				AcquireRate:  rm.Stats.AcquireSuccessRate(),
				Sections:     rm.Split.Sections,
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintFig10 renders the cycle-reduction sensitivity (Figure 10).
func PrintFig10(wr io.Writer, rows []EsSweepRow) {
	section(wr, "Figure 10: cycle-reduction sensitivity to |Es| (* = heuristic pick)")
	printSweep(wr, rows, func(p *EsPoint) string { return fmt.Sprintf("%7.1f%%", p.ReductionPct) })
}

// PrintFig11 renders occupancy (a) and successful-acquire ratio (b).
func PrintFig11(wr io.Writer, rows []EsSweepRow) {
	section(wr, "Figure 11a: theoretical occupancy vs |Es| (* = heuristic pick)")
	printSweep(wr, rows, func(p *EsPoint) string { return fmt.Sprintf("%7.0f%%", 100*p.Occupancy) })
	section(wr, "Figure 11b: successful acquires vs |Es| (* = heuristic pick)")
	printSweep(wr, rows, func(p *EsPoint) string { return fmt.Sprintf("%7.1f%%", 100*p.AcquireRate) })
}

func printSweep(wr io.Writer, rows []EsSweepRow, cell func(*EsPoint) string) {
	fmt.Fprintf(wr, "%-16s", "application")
	for _, es := range SweepEsValues {
		fmt.Fprintf(wr, "   Es=%-4d", es)
	}
	fmt.Fprintln(wr)
	for _, r := range rows {
		fmt.Fprintf(wr, "%-16s", r.Name)
		for _, es := range SweepEsValues {
			p := r.Points[es]
			mark := " "
			if es == r.HeuristicEs {
				mark = "*"
			}
			if p == nil {
				fmt.Fprintf(wr, " %7s%s", "n/a", mark)
			} else {
				fmt.Fprintf(wr, " %s%s", cell(p), mark)
			}
		}
		fmt.Fprintln(wr)
	}
}

// PairedResult is one application under the paired-warps specialisation.
type PairedResult struct {
	Name           string
	BaselineCycles int64
	DefaultCycles  int64 // default RegMutex
	PairedCycles   int64
	PairedOcc      float64
	DefaultRate    float64 // acquire success, default RegMutex
	PairedRate     float64 // acquire success, paired
}

// Fig12a evaluates the paired-warps specialisation on the baseline
// machine over the register-limited set (section IV-E).
func Fig12a(o Options) ([]PairedResult, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	return pairedStudy(o, cfg, cfg, workloads.Fig7Set())
}

// Fig12b evaluates it on the half-size register file over the Figure 8
// set, measured against the full-RF baseline.
func Fig12b(o Options) ([]PairedResult, error) {
	o = o.normalize()
	full := o.machine(occupancy.GTX480())
	half := o.machine(occupancy.GTX480Half())
	return pairedStudy(o, full, half, workloads.Fig8Set())
}

func pairedStudy(o Options, refCfg, runCfg occupancy.Config, set []*workloads.Workload) ([]PairedResult, error) {
	type pending struct {
		w             *workloads.Workload
		k             *isa.Kernel
		ref, rm, pair Pending
	}
	var pend []pending
	for _, w := range set {
		k := w.Build(o.Scale)
		spec := o.Spec(runCfg, w, k)
		pend = append(pend, pending{
			w:    w,
			k:    k,
			ref:  Submit(o.Ctx, o.Spec(refCfg, w, k), "static"),
			rm:   Submit(o.Ctx, spec, "regmutex"),
			pair: Submit(o.Ctx, spec, "paired"),
		})
	}
	var out []PairedResult
	for _, p := range pend {
		ref, err := p.ref.Wait(o.Ctx)
		if err != nil {
			return nil, err
		}
		def, err := p.rm.Wait(o.Ctx)
		if err != nil {
			return nil, err
		}
		pair, err := p.pair.Wait(o.Ctx)
		if err != nil {
			return nil, err
		}
		// The transform keeps the CTA shape, so the source kernel prices
		// the paired occupancy.
		occ := occupancy.PairedPairs(runCfg, p.k, def.Split.Bs, def.Split.Es)
		out = append(out, PairedResult{
			Name:           p.w.Name,
			BaselineCycles: ref.Stats.Cycles,
			DefaultCycles:  def.Stats.Cycles,
			PairedCycles:   pair.Stats.Cycles,
			PairedOcc:      occ.Occupancy,
			DefaultRate:    def.Stats.AcquireSuccessRate(),
			PairedRate:     pair.Stats.AcquireSuccessRate(),
		})
	}
	return out, nil
}

// PrintFig12 renders the paired-warps performance figures.
func PrintFig12(wr io.Writer, rows []PairedResult, half bool) {
	if half {
		section(wr, "Figure 12b: paired-warps on half-size RF (increase vs full-RF baseline)")
	} else {
		section(wr, "Figure 12a: paired-warps specialisation on the baseline")
	}
	fmt.Fprintf(wr, "%-16s %12s %11s %11s %9s %9s\n",
		"application", "base cycles", "default RM", "paired", "metric", "pair occ")
	var def, pair []float64
	for _, r := range rows {
		var md, mp float64
		if half {
			md, mp = increasePct(r.BaselineCycles, r.DefaultCycles), increasePct(r.BaselineCycles, r.PairedCycles)
		} else {
			md, mp = reductionPct(r.BaselineCycles, r.DefaultCycles), reductionPct(r.BaselineCycles, r.PairedCycles)
		}
		fmt.Fprintf(wr, "%-16s %12d %11d %11d %8.1f%% %8.0f%%\n",
			r.Name, r.BaselineCycles, r.DefaultCycles, r.PairedCycles, mp, 100*r.PairedOcc)
		def = append(def, md)
		pair = append(pair, mp)
	}
	if half {
		fmt.Fprintf(wr, "%-16s default avg increase %.1f%%, paired avg increase %.1f%%  (paper: 10.8%% vs ~17%%)\n",
			"average", mean(def), mean(pair))
	} else {
		fmt.Fprintf(wr, "%-16s default avg reduction %.1f%%, paired avg reduction %.1f%%  (paper: 12%% vs 8%%)\n",
			"average", mean(def), mean(pair))
	}
}

// Fig13Row is one application's acquire success rate, default vs paired.
type Fig13Row struct {
	Name        string
	HalfRF      bool
	DefaultRate float64
	PairedRate  float64
}

// Fig13 measures the acquire-instruction success rate with and without
// paired-warps specialisation across all sixteen applications: the
// register-limited eight on the baseline, the rest on the half-size RF.
func Fig13(o Options) ([]Fig13Row, error) {
	o = o.normalize()
	type pending struct {
		w        *workloads.Workload
		half     bool
		rm, pair Pending
	}
	var pend []pending
	submit := func(set []*workloads.Workload, cfg occupancy.Config, half bool) {
		for _, w := range set {
			spec := o.Spec(cfg, w, w.Build(o.Scale))
			pend = append(pend, pending{
				w: w, half: half,
				rm:   Submit(o.Ctx, spec, "regmutex"),
				pair: Submit(o.Ctx, spec, "paired"),
			})
		}
	}
	submit(workloads.Fig7Set(), o.machine(occupancy.GTX480()), false)
	submit(workloads.Fig8Set(), o.machine(occupancy.GTX480Half()), true)
	var out []Fig13Row
	for _, p := range pend {
		def, err := p.rm.Wait(o.Ctx)
		if err != nil {
			return nil, err
		}
		pair, err := p.pair.Wait(o.Ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig13Row{
			Name: p.w.Name, HalfRF: p.half,
			DefaultRate: def.Stats.AcquireSuccessRate(),
			PairedRate:  pair.Stats.AcquireSuccessRate(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].HalfRF != out[j].HalfRF {
			return !out[i].HalfRF
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// PrintFig13 renders the acquire success comparison.
func PrintFig13(wr io.Writer, rows []Fig13Row) {
	section(wr, "Figure 13: acquire success rate, default RegMutex vs paired-warps")
	fmt.Fprintf(wr, "%-16s %9s %12s %12s\n", "application", "machine", "default", "paired")
	for _, r := range rows {
		m := "full RF"
		if r.HalfRF {
			m = "half RF"
		}
		fmt.Fprintf(wr, "%-16s %9s %11.1f%% %11.1f%%\n", r.Name, m, 100*r.DefaultRate, 100*r.PairedRate)
	}
}

// PrintStorage prints the hardware storage accounting of section III-B1.
func PrintStorage(wr io.Writer) {
	section(wr, "Figures 4-6: RegMutex hardware storage accounting (Nw = 48)")
	nw := 48
	rm := core.StorageBits(nw)
	rfv := core.RFVStorageBits(nw, 63, 1024)
	paired := core.PairedStorageBits(nw)
	fmt.Fprintf(wr, "RegMutex structures: warp-status %d + SRP mask %d + LUT %d = %d bits\n",
		nw, nw, rm-2*nw, rm)
	fmt.Fprintf(wr, "RFV renaming structures (excl. Release Flag Cache): %d bits\n", rfv)
	fmt.Fprintf(wr, "storage ratio RFV / RegMutex: %.0fx (paper: more than 81x)\n", float64(rfv)/float64(rm))
	fmt.Fprintf(wr, "paired-warps specialisation: %d bits (%.0fx below default RegMutex)\n",
		paired, float64(rm)/float64(paired))
}
