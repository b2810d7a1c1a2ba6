package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"regmutex/internal/cfg"
	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
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
}

// Fig1 follows a sample thread (thread 0 of CTA 0) through its dynamic
// instruction stream and records live-register utilisation at every step,
// reproducing the methodology behind Figure 1 ("results are extracted
// using our extension to GPGPU-Sim").
func Fig1(o Options) ([]Fig1Row, error) {
	o = o.normalize()
	var out []Fig1Row
	for _, name := range Fig1Apps {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		k := w.Build(o.Scale)
		g, err := cfg.Build(k)
		if err != nil {
			return nil, err
		}
		inf := liveness.Analyze(k, g)
		cfg.AnnotateReconvergence(k, g)
		trace, err := traceThread(k, w.Input(k, o.Seed), inf)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", name, err)
		}
		out = append(out, Fig1Row{Name: name, Trace: trace})
	}
	return out, nil
}

// traceThread runs a scalar interpreter for thread 0 of CTA 0 and emits
// the utilisation profile along its path.
func traceThread(k *isa.Kernel, global []uint64, inf *liveness.Info) ([]float64, error) {
	regs := make([]uint64, k.NumRegs)
	preds := make([]bool, k.NumPRegs)
	shared := make([]uint64, max(k.SharedMemWords, 1))
	alloc := float64(k.AllocRegs())

	read := func(o isa.Operand) uint64 {
		if o.Kind == isa.OpndImm {
			return uint64(o.Imm)
		}
		return regs[o.Reg]
	}
	readF := func(o isa.Operand) float64 { return isa.B2F(read(o)) }
	ldGlobal := func(addr int64) uint64 {
		n := int64(len(global))
		addr = ((addr % n) + n) % n
		return global[addr]
	}

	var trace []float64
	pc := 0
	const maxSteps = 1 << 20
	for step := 0; step < maxSteps; step++ {
		if pc < 0 || pc >= len(k.Instrs) {
			return nil, fmt.Errorf("trace: pc %d out of range", pc)
		}
		in := &k.Instrs[pc]
		trace = append(trace, float64(inf.CountAt(pc))/alloc)

		exec := true
		if !in.Guard.Unguarded() && in.Op != isa.OpSelp {
			exec = preds[in.Guard.Pred] != in.Guard.Neg
		}
		next := pc + 1
		if exec {
			switch in.Op {
			case isa.OpExit:
				return trace, nil
			case isa.OpBra:
				next = in.Target
			case isa.OpMov:
				regs[in.Dst] = read(in.Srcs[0])
			case isa.OpMovSpecial:
				switch in.Spec {
				case isa.SpecNTID:
					regs[in.Dst] = uint64(k.ThreadsPerCTA)
				case isa.SpecNCTAID:
					regs[in.Dst] = uint64(k.GridCTAs)
				default:
					regs[in.Dst] = 0 // tid, ctaid, laneid, warpid of thread 0
				}
			case isa.OpIAdd:
				regs[in.Dst] = uint64(int64(read(in.Srcs[0])) + int64(read(in.Srcs[1])))
			case isa.OpISub:
				regs[in.Dst] = uint64(int64(read(in.Srcs[0])) - int64(read(in.Srcs[1])))
			case isa.OpIMul:
				regs[in.Dst] = uint64(int64(read(in.Srcs[0])) * int64(read(in.Srcs[1])))
			case isa.OpIMad:
				regs[in.Dst] = uint64(int64(read(in.Srcs[0]))*int64(read(in.Srcs[1])) + int64(read(in.Srcs[2])))
			case isa.OpIMin:
				regs[in.Dst] = uint64(min(int64(read(in.Srcs[0])), int64(read(in.Srcs[1]))))
			case isa.OpIMax:
				regs[in.Dst] = uint64(max(int64(read(in.Srcs[0])), int64(read(in.Srcs[1]))))
			case isa.OpIAbs:
				v := int64(read(in.Srcs[0]))
				if v < 0 {
					v = -v
				}
				regs[in.Dst] = uint64(v)
			case isa.OpShl:
				regs[in.Dst] = read(in.Srcs[0]) << (read(in.Srcs[1]) & 63)
			case isa.OpShr:
				regs[in.Dst] = uint64(int64(read(in.Srcs[0])) >> (read(in.Srcs[1]) & 63))
			case isa.OpAnd:
				regs[in.Dst] = read(in.Srcs[0]) & read(in.Srcs[1])
			case isa.OpOr:
				regs[in.Dst] = read(in.Srcs[0]) | read(in.Srcs[1])
			case isa.OpXor:
				regs[in.Dst] = read(in.Srcs[0]) ^ read(in.Srcs[1])
			case isa.OpFAdd:
				regs[in.Dst] = isa.F2B(readF(in.Srcs[0]) + readF(in.Srcs[1]))
			case isa.OpFSub:
				regs[in.Dst] = isa.F2B(readF(in.Srcs[0]) - readF(in.Srcs[1]))
			case isa.OpFMul:
				regs[in.Dst] = isa.F2B(readF(in.Srcs[0]) * readF(in.Srcs[1]))
			case isa.OpFFma:
				regs[in.Dst] = isa.F2B(readF(in.Srcs[0])*readF(in.Srcs[1]) + readF(in.Srcs[2]))
			case isa.OpFMin:
				regs[in.Dst] = isa.F2B(math.Min(readF(in.Srcs[0]), readF(in.Srcs[1])))
			case isa.OpFMax:
				regs[in.Dst] = isa.F2B(math.Max(readF(in.Srcs[0]), readF(in.Srcs[1])))
			case isa.OpFAbs:
				regs[in.Dst] = isa.F2B(math.Abs(readF(in.Srcs[0])))
			case isa.OpI2F:
				regs[in.Dst] = isa.F2B(float64(int64(read(in.Srcs[0]))))
			case isa.OpF2I:
				regs[in.Dst] = uint64(int64(readF(in.Srcs[0])))
			case isa.OpFSqrt:
				regs[in.Dst] = isa.F2B(math.Sqrt(math.Abs(readF(in.Srcs[0]))))
			case isa.OpFRcp:
				d := readF(in.Srcs[0])
				if d == 0 {
					d = 1e-30
				}
				regs[in.Dst] = isa.F2B(1 / d)
			case isa.OpFSin:
				regs[in.Dst] = isa.F2B(math.Sin(readF(in.Srcs[0])))
			case isa.OpFCos:
				regs[in.Dst] = isa.F2B(math.Cos(readF(in.Srcs[0])))
			case isa.OpFExp:
				regs[in.Dst] = isa.F2B(math.Exp(min(64, max(-64, readF(in.Srcs[0])))))
			case isa.OpFLog:
				regs[in.Dst] = isa.F2B(math.Log(math.Abs(readF(in.Srcs[0])) + 1e-30))
			case isa.OpSetp:
				preds[in.PDst] = cmpI(in.Cmp, int64(read(in.Srcs[0])), int64(read(in.Srcs[1])))
			case isa.OpSetpF:
				preds[in.PDst] = cmpF(in.Cmp, readF(in.Srcs[0]), readF(in.Srcs[1]))
			case isa.OpSelp:
				if preds[in.Guard.Pred] != in.Guard.Neg {
					regs[in.Dst] = read(in.Srcs[0])
				} else {
					regs[in.Dst] = read(in.Srcs[1])
				}
			case isa.OpLdGlobal:
				regs[in.Dst] = ldGlobal(int64(read(in.Srcs[0])) + in.Off)
			case isa.OpStGlobal:
				// a single thread's store cannot affect its own trace
			case isa.OpLdShared:
				regs[in.Dst] = shared[int(uint64(int64(read(in.Srcs[0]))+in.Off)%uint64(len(shared)))]
			case isa.OpStShared:
				shared[int(uint64(int64(read(in.Srcs[0]))+in.Off)%uint64(len(shared)))] = read(in.Srcs[1])
			case isa.OpBarSync, isa.OpAcq, isa.OpRel, isa.OpNop:
				// no scalar effect
			}
		}
		pc = next
	}
	return nil, fmt.Errorf("trace: thread did not exit within %d steps", 1<<20)
}

func cmpI(c isa.CmpOp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	default:
		return a >= b
	}
}

func cmpF(c isa.CmpOp, a, b float64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	default:
		return a >= b
	}
}

// PrintFig1 renders each application's utilisation trace as a sparkline
// plus summary statistics (mean and peak utilisation).
func PrintFig1(wr io.Writer, rows []Fig1Row) {
	section(wr, "Figure 1: live-register utilisation of a sample thread")
	ramp := []rune("▁▂▃▄▅▆▇█")
	for _, r := range rows {
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
	g, err := cfg.Build(k)
	if err != nil {
		return err
	}
	inf := liveness.Analyze(k, g)
	section(wr, "Figure 3: DWT2D code sample with static register liveness")
	limit := 34
	if len(k.Instrs) < limit {
		limit = len(k.Instrs)
	}
	for i := 0; i < limit; i++ {
		live := inf.LiveAt(i)
		fmt.Fprintf(wr, "%3d: %-34s live(%2d): %s\n", i, k.Instrs[i].String(), live.Count(), compactSet(live))
	}
	return nil
}

// compactSet renders a RegSet as ranges, e.g. "r2-r4, r7".
func compactSet(s isa.RegSet) string {
	regs := s.Regs()
	if len(regs) == 0 {
		return "-"
	}
	var parts []string
	start, prev := regs[0], regs[0]
	flush := func() {
		if start == prev {
			parts = append(parts, fmt.Sprintf("r%d", start))
		} else {
			parts = append(parts, fmt.Sprintf("r%d-r%d", start, prev))
		}
	}
	for _, r := range regs[1:] {
		if r == prev+1 {
			prev = r
			continue
		}
		flush()
		start, prev = r, r
	}
	flush()
	return strings.Join(parts, ", ")
}
