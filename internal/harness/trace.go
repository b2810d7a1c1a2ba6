package harness

import (
	"context"
	"fmt"
	"io"
	"slices"

	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// Fig1Apps is the sample-thread utilisation set of Figure 1.
var Fig1Apps = []string{"cutcp", "dwt2d", "heartwall", "hotspot3d", "particlefilter", "sad"}

// Fig1Row is one application's live-register utilisation trace: the
// fraction of allocated registers live at each instruction a sample
// thread executes.
type Fig1Row struct {
	Name  string
	Trace []float64
	// Err marks a failed row; see AppResult.Err.
	Err error
}

// Fig1 follows a sample thread (thread 0 of CTA 0) through the cycle
// simulator and records live-register utilisation at every instruction
// it issues, the methodology behind Figure 1 ("results are extracted
// using our extension to GPGPU-Sim"). Liveness comes from the source
// kernel; the static run executes the same instructions at the same PCs.
// The runs go through a private pool: a memo hit skips observers, so a
// pool shared with earlier experiments would hand back empty traces.
func Fig1(o Options) ([]Fig1Row, error) {
	o = o.normalize()
	o.Pool = runpool.New(o.Jobs)
	out := make([]Fig1Row, len(Fig1Apps))
	rows := make([][]Cell, len(Fig1Apps))
	set := allSet()
	for i, name := range Fig1Apps {
		j := slices.IndexFunc(set, func(w *workloads.Workload) bool { return w.Name == name })
		if j < 0 {
			return nil, fmt.Errorf("fig1: no workload %q", name)
		}
		w := set[j]
		k := w.Build(o.Scale)
		inf, err := liveness.Compute(k)
		if err != nil {
			return nil, err
		}
		alloc := float64(k.AllocRegs())
		row := &out[i]
		row.Name = name
		spec := o.Spec(o.machine(occupancy.GTX480()), w, k)
		spec.Observe = func(string) ([]sim.Option, func(sim.Stats)) {
			return []sim.Option{sim.WithObserver(sim.ObserverFuncs{Stall: func(s sim.StallSlot) {
				if s.Cause != sim.CauseIssued || s.Warp.CTA.ID != 0 || s.Warp.CTA.Warps()[0] != s.Warp {
					return
				}
				if pc, active := s.Warp.LastIssue(); active&1 != 0 {
					row.Trace = append(row.Trace, float64(inf.CountAt(pc))/alloc)
				}
			}})}, nil
		}
		rows[i] = []Cell{{spec, "static"}}
	}
	for i, runs := range o.study(rows) {
		out[i].Err = rowErr(runs)
	}
	return out, nil
}

// PrintFig1 renders each application's utilisation trace as a sparkline
// plus summary statistics (mean and peak utilisation).
func PrintFig1(wr io.Writer, rows []Fig1Row) {
	section(wr, "Figure 1: live-register utilisation of a sample thread")
	ramp := []rune("▁▂▃▄▅▆▇█")
	for _, r := range rows {
		if errRow(wr, r.Name, r.Err) {
			continue
		}
		const buckets = 64
		spark := make([]rune, 0, buckets)
		for b := 0; b < buckets; b++ {
			lo := b * len(r.Trace) / buckets
			hi := (b + 1) * len(r.Trace) / buckets
			if hi <= lo {
				hi = lo + 1
			}
			m := 0.0
			for i := lo; i < hi && i < len(r.Trace); i++ {
				if r.Trace[i] > m {
					m = r.Trace[i]
				}
			}
			idx := int(m * float64(len(ramp)-1))
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			spark = append(spark, ramp[idx])
		}
		fmt.Fprintf(wr, "%-16s %s  mean %4.0f%%  peak %4.0f%%  (%d dynamic instrs)\n",
			r.Name, string(spark), 100*mean(r.Trace), 100*maxOf(r.Trace), len(r.Trace))
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Fig2Timeline captures the two-warp illustrative scenario of Figure 2:
// a 48-row register file, 31-register kernel, Bs = Es = 16.
type Fig2Timeline struct {
	StaticCycles   int64
	RegMutexCycles int64
	Events         []sim.Event // acquire / release / cta events
}

// Fig2 builds the toy machine of Figure 2 (register file of 48 warp
// registers, two warp slots) and runs a 31-register kernel with and
// without RegMutex, recording the acquire/release timeline.
func Fig2() (*Fig2Timeline, error) {
	toy := occupancy.Config{
		Name:             "fig2-toy",
		NumSMs:           1,
		MaxWarpsPerSM:    2,
		MaxCTAsPerSM:     2,
		MaxThreadsPerSM:  64,
		RegistersPerSM:   48 * isa.WarpSize,
		SharedWordsPerSM: 1024,
		SchedulersPerSM:  1,
	}
	k, err := fig2Kernel()
	if err != nil {
		return nil, err
	}

	// The paper fixes Bs = Es = 16. With no Pool, RunPolicies runs on a
	// private one whose memo starts cold, so the event observer sees
	// every call's regmutex run.
	tl := &Fig2Timeline{}
	spec := RunSpec{Machine: toy, Kernel: k, ForceEs: 16, Policies: []string{"static", "regmutex"}}
	spec.Observe = func(policy string) ([]sim.Option, func(sim.Stats)) {
		if policy != "regmutex" {
			return nil, nil
		}
		return []sim.Option{sim.WithObserver(sim.ObserverFuncs{
			Event: func(ev sim.Event) { tl.Events = append(tl.Events, ev) },
		})}, nil
	}
	rows, _ := RunPolicies(context.Background(), spec)
	for _, r := range rows {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	tl.StaticCycles, tl.RegMutexCycles = rows[0].Stats.Cycles, rows[1].Stats.Cycles
	return tl, nil
}

// fig2Kernel is a 31-register kernel with a mid-kernel peak, one CTA of
// one warp, launched twice (warps A and B of the figure).
func fig2Kernel() (*isa.Kernel, error) {
	b := isa.NewBuilder("fig2", 31, 1, 32)
	b.MovSpecial(0, isa.SpecTID)
	b.MovSpecial(1, isa.SpecCTAID)
	b.IMad(2, isa.R(1), isa.Imm(32), isa.R(0))
	b.Mov(3, isa.Imm(0))
	b.Mov(4, isa.Imm(6))
	b.Label("top")
	// Low phase: a load on base registers carries the latency.
	b.LdGlobal(5, isa.R(2), 0)
	b.IAdd(3, isa.R(3), isa.R(5))
	// Peak phase: a 15-register tile materialises in r16..r30.
	for i := 0; i < 15; i++ {
		b.IAdd(isa.Reg(16+i), isa.R(5), isa.Imm(int64(16+i)))
	}
	for i := 0; i < 15; i++ {
		b.IAdd(3, isa.R(3), isa.R(isa.Reg(16+i)))
	}
	// Cool-down on base registers.
	for r := 6; r <= 15; r++ {
		b.IAdd(isa.Reg(r), isa.R(3), isa.Imm(int64(r)))
		b.IAdd(3, isa.R(3), isa.R(isa.Reg(r)))
	}
	b.ISub(4, isa.R(4), isa.Imm(1))
	b.Setp(0, isa.CmpGT, isa.R(4), isa.Imm(0))
	b.BraIf(0, "top")
	b.StGlobal(isa.R(2), 2048, isa.R(3))
	b.Exit()
	k, err := b.Kernel()
	if err != nil {
		return nil, err
	}
	k.GridCTAs = 2
	k.GlobalMemWords = 4096
	return k, nil
}

// PrintFig2 renders the timeline.
func PrintFig2(wr io.Writer, tl *Fig2Timeline) {
	section(wr, "Figure 2: two warps, 48-register machine, 31-register kernel (Bs=Es=16)")
	fmt.Fprintf(wr, "baseline (static, exclusive): %d cycles — the second warp waits for the first\n", tl.StaticCycles)
	fmt.Fprintf(wr, "RegMutex (time-shared Es):    %d cycles — warps overlap, serialising only the peaks\n", tl.RegMutexCycles)
	speedup := float64(tl.StaticCycles) / float64(tl.RegMutexCycles)
	fmt.Fprintf(wr, "overlap speedup: %.2fx\n", speedup)
	shown := 0
	for _, ev := range tl.Events {
		if ev.Kind == "acquire" || ev.Kind == "release" {
			fmt.Fprintf(wr, "  cycle %6d: warp %d %s SRP section %d\n", ev.Cycle, ev.Warp, ev.Kind, ev.Data)
			shown++
			if shown >= 12 {
				fmt.Fprintf(wr, "  ... (%d more events)\n", len(tl.Events)-shown)
				break
			}
		}
	}
}

// PrintFig3 renders a DWT2D code listing with its static per-instruction
// live registers, the presentation of Figure 3.
func PrintFig3(wr io.Writer) error {
	w, err := workloads.ByName("dwt2d")
	if err != nil {
		return err
	}
	k := w.Build(8)
	inf, err := liveness.Compute(k)
	if err != nil {
		return err
	}
	section(wr, "Figure 3: DWT2D code sample with static register liveness")
	return inf.WriteListing(wr, min(34, len(k.Instrs)))
}
