package harness

import (
	"fmt"
	"io"
	"sort"

	"regmutex/internal/core"
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
	Points      map[int]*EsPoint // no entry: configuration infeasible
	// Err marks a failed static baseline; see AppResult.Err.
	Err error
}

// EsSweep manually sets |Es| to each sweep value for the register-limited
// applications and measures cycle reduction, theoretical occupancy, and
// the successful-acquire ratio. Only a failed baseline fails a row: a
// failed |Es| point is an infeasible configuration (deadlock rules,
// compaction) and prints as n/a.
func EsSweep(o Options) ([]EsSweepRow, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	set := fig7Set()
	out := make([]EsSweepRow, len(set))
	rows := make([][]Cell, len(set))
	for i, w := range set {
		k := w.Build(o.Scale)
		heur, err := core.Transform(k, core.Options{Config: cfg})
		if err != nil {
			return nil, err
		}
		out[i] = EsSweepRow{Name: w.Name, HeuristicEs: heur.Split.Es, Points: map[int]*EsPoint{}}
		spec := o.Spec(cfg, w, k)
		rows[i] = []Cell{{spec, "static"}}
		for _, es := range SweepEsValues {
			spec.ForceEs = es
			rows[i] = append(rows[i], Cell{spec, "regmutex"})
		}
	}
	for i, runs := range o.study(rows) {
		base := runs[0]
		if out[i].Err = base.Err; base.Err != nil {
			continue
		}
		for j, es := range SweepEsValues {
			if rm := runs[j+1]; rm.Err == nil {
				out[i].Points[es] = &EsPoint{
					ReductionPct: reductionPct(base.Stats.Cycles, rm.Stats.Cycles),
					Occupancy:    rm.RegMutexOcc.Occupancy,
					AcquireRate:  rm.Stats.AcquireSuccessRate(),
					Sections:     rm.Split.Sections,
				}
			}
		}
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
		if errRow(wr, r.Name, r.Err) {
			continue
		}
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
	// Err marks a failed row; see AppResult.Err.
	Err error
}

// Fig12a evaluates the paired-warps specialisation on the baseline
// machine over the register-limited set (section IV-E).
func Fig12a(o Options) ([]PairedResult, error) {
	o = o.normalize()
	cfg := o.machine(occupancy.GTX480())
	return pairedStudy(o, cfg, cfg, fig7Set()), nil
}

// Fig12b evaluates it on the half-size register file over the Figure 8
// set, measured against the full-RF baseline.
func Fig12b(o Options) ([]PairedResult, error) {
	o = o.normalize()
	full := o.machine(occupancy.GTX480())
	half := o.machine(occupancy.GTX480Half())
	return pairedStudy(o, full, half, fig8Set()), nil
}

func pairedStudy(o Options, refCfg, runCfg occupancy.Config, set []*workloads.Workload) []PairedResult {
	rows := make([][]Cell, len(set))
	for i, w := range set {
		k := w.Build(o.Scale)
		spec := o.Spec(runCfg, w, k)
		rows[i] = []Cell{{o.Spec(refCfg, w, k), "static"}, {spec, "regmutex"}, {spec, "paired"}}
	}
	out := make([]PairedResult, len(set))
	for i, runs := range o.study(rows) {
		if err := rowErr(runs); err != nil {
			out[i] = PairedResult{Name: set[i].Name, Err: err}
			continue
		}
		ref, def, pair := runs[0], runs[1], runs[2]
		// The transform keeps the CTA shape, so the source kernel prices
		// the paired occupancy.
		occ := occupancy.PairedPairs(runCfg, rows[i][1].Spec.Kernel, def.Split.Bs, def.Split.Es)
		out[i] = PairedResult{
			Name:           set[i].Name,
			BaselineCycles: ref.Stats.Cycles,
			DefaultCycles:  def.Stats.Cycles,
			PairedCycles:   pair.Stats.Cycles,
			PairedOcc:      occ.Occupancy,
			DefaultRate:    def.Stats.AcquireSuccessRate(),
			PairedRate:     pair.Stats.AcquireSuccessRate(),
		}
	}
	return out
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
		if errRow(wr, r.Name, r.Err) {
			continue
		}
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
	// Err marks a failed row; see AppResult.Err.
	Err error
}

// Fig13 measures the acquire-instruction success rate with and without
// paired-warps specialisation across all sixteen applications: the
// register-limited eight on the baseline, the rest on the half-size RF.
func Fig13(o Options) ([]Fig13Row, error) {
	o = o.normalize()
	set7 := fig7Set()
	set := append(set7[:len(set7):len(set7)], fig8Set()...)
	rows := make([][]Cell, len(set))
	for i, w := range set {
		cfg := o.machine(occupancy.GTX480())
		if i >= len(set7) {
			cfg = o.machine(occupancy.GTX480Half())
		}
		spec := o.Spec(cfg, w, w.Build(o.Scale))
		rows[i] = []Cell{{spec, "regmutex"}, {spec, "paired"}}
	}
	out := make([]Fig13Row, len(set))
	for i, runs := range o.study(rows) {
		out[i] = Fig13Row{Name: set[i].Name, HalfRF: i >= len(set7), Err: rowErr(runs)}
		if out[i].Err == nil {
			out[i].DefaultRate = runs[0].Stats.AcquireSuccessRate()
			out[i].PairedRate = runs[1].Stats.AcquireSuccessRate()
		}
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
		if errRow(wr, r.Name, r.Err) {
			continue
		}
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
