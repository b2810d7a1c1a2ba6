package sim

import (
	"fmt"
	"slices"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// TestDecodeMatchesISA decodes every opcode with register and immediate
// sources, guarded and unguarded, and checks each entry's scoreboard
// lists, latency, flags, register-file reads and immediate rows against
// the isa package's opcode tables and the Timing latencies.
func TestDecodeMatchesISA(t *testing.T) {
	// Distinct latencies, so a wrong class shows.
	tm := Timing{ALULatency: 1, FPLatency: 2, SFULatency: 3, SharedLatency: 5, GlobalLatency: 7}
	forms := [][3]isa.Operand{
		{isa.R(1), isa.Imm(-7), isa.R(2)},
		{isa.Imm(9), isa.R(3), isa.Imm(1 << 40)},
	}
	guards := []isa.Guard{{Pred: isa.NoPReg}, {Pred: 3, Neg: true}}
	for op := isa.Opcode(0); op < isa.Opcode(isa.NumOpcodes); op++ {
		for _, srcs := range forms {
			for _, g := range guards {
				in := isa.NewInstr(op)
				in.Srcs, in.Guard = srcs, g
				if isa.HasDst(op) {
					in.Dst = 5
				}
				if op == isa.OpSetp || op == isa.OpSetpF {
					in.PDst = 6
				}
				k := &isa.Kernel{Instrs: []isa.Instr{in}}
				d := decodeKernel(k, tm)[0]
				name := op.String()

				var wantRegs []isa.Reg
				var wantPreds []isa.PReg
				wantReads := 0
				if isa.HasDst(op) {
					wantRegs = append(wantRegs, in.Dst)
				}
				for s := 0; s < isa.NumSrcs(op); s++ {
					if srcs[s].Kind == isa.OpndReg {
						wantRegs = append(wantRegs, srcs[s].Reg)
						wantReads++
					}
				}
				setp := op == isa.OpSetp || op == isa.OpSetpF
				if setp {
					wantPreds = append(wantPreds, in.PDst)
				}
				if !g.Unguarded() {
					wantPreds = append(wantPreds, g.Pred)
				}
				if got := d.regs[:d.nregs]; !slices.Equal(got, wantRegs) {
					t.Errorf("%s: scoreboard regs %v, want %v", name, got, wantRegs)
				}
				if got := d.preds[:d.npreds]; !slices.Equal(got, wantPreds) {
					t.Errorf("%s: scoreboard preds %v, want %v", name, got, wantPreds)
				}
				if int(d.rfReads) != wantReads {
					t.Errorf("%s: rfReads %d, want %d", name, d.rfReads, wantReads)
				}
				if int(d.nsrc) != isa.NumSrcs(op) {
					t.Errorf("%s: nsrc %d, want %d", name, d.nsrc, isa.NumSrcs(op))
				}

				wantLat := tm.ALULatency
				switch {
				case op == isa.OpLdShared || op == isa.OpStShared:
					wantLat = tm.SharedLatency
				case op == isa.OpLdGlobal || op == isa.OpStGlobal:
					wantLat = tm.GlobalLatency
				case isa.ClassOf(op) == isa.ClassFP:
					wantLat = tm.FPLatency
				case isa.ClassOf(op) == isa.ClassSFU:
					wantLat = tm.SFULatency
				}
				if d.lat != wantLat {
					t.Errorf("%s: latency %d, want %d", name, d.lat, wantLat)
				}

				flag := func(f decodeFlag) bool { return d.flags&f != 0 }
				for _, c := range []struct {
					what      string
					got, want bool
				}{
					{"has-dst", flag(flagDst), isa.HasDst(op)},
					{"pred-dst", flag(flagPDst), setp},
					{"wakes", d.wakes(), isa.HasDst(op) || setp},
					{"sfu", flag(flagSFU), isa.ClassOf(op) == isa.ClassSFU},
					{"global", flag(flagGlobal), op == isa.OpLdGlobal || op == isa.OpStGlobal},
					{"acq/rel", flag(flagAcqRel), op == isa.OpAcq || op == isa.OpRel},
				} {
					if c.got != c.want {
						t.Errorf("%s: %s flag %v, want %v", name, c.what, c.got, c.want)
					}
				}

				for s := 0; s < 3; s++ {
					imm := s < isa.NumSrcs(op) && srcs[s].Kind == isa.OpndImm
					if (d.imm[s] != nil) != imm {
						t.Fatalf("%s: source %d immediate row %v, want %v", name, s, d.imm[s] != nil, imm)
					}
					if imm && *d.imm[s] != broadcast(srcs[s].Imm) {
						t.Errorf("%s: source %d row %v, want %d in every lane", name, s, *d.imm[s], srcs[s].Imm)
					}
				}
			}
		}
	}
}

// TestImmediateRowsReadOnly runs the eight Fig 7 kernels under RegMutex
// and then checks that every pre-broadcast immediate row of every issue
// table still holds its immediate in all 32 lanes: execute must only
// read the rows it shares across warps and CTAs.
func TestImmediateRowsReadOnly(t *testing.T) {
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	for _, name := range []string{"bfs", "cutcp", "dwt2d", "hotspot3d", "mriq", "particlefilter", "radixsort", "sad"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(2)
		res, err := core.Transform(k, core.Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: res.Kernel},
			WithPolicy(NewRegMutexPolicy(cfg)), WithGlobal(w.Input(k, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows := 0
		for kern, code := range d.code {
			for pc := range code {
				dc := &code[pc]
				for s, r := range dc.imm {
					if r == nil {
						continue
					}
					rows++
					if imm := dc.in.Srcs[s].Imm; *r != broadcast(imm) {
						t.Errorf("%s pc %d (%s) source %d: row %v, want %d in every lane",
							kern.Name, pc, dc.in, s, *r, imm)
					}
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: no immediate rows decoded", name)
		}
	}
}

func broadcast(imm int64) row {
	var r row
	for l := range r {
		r[l] = uint64(imm)
	}
	return r
}

// walkAudit checks, before every simulated step, that each scheduler's
// dense walk state agrees with the facts of the warps in its pick list.
type walkAudit struct{ checked int }

func (a *walkAudit) CheckCycle(d *Device, now int64) error {
	for _, sm := range d.sms {
		for s := range sm.schedulers {
			sched := &sm.schedulers[s]
			if len(sched.until) != len(sched.order) {
				return fmt.Errorf("cycle %d SM%d scheduler %d: %d walk entries for %d warps",
					now, sm.id, s, len(sched.until), len(sched.order))
			}
			for i, w := range sched.order {
				if got, want := sched.until[i], w.walkUntil(); got != want {
					return fmt.Errorf("cycle %d SM%d scheduler %d: entry %d (warp %d) is %d, its facts say %d",
						now, sm.id, s, i, w.Widx, got, want)
				}
			}
			a.checked++
		}
	}
	return nil
}

func (a *walkAudit) CheckEnd(*Device) error { return nil }

// TestWalkStateMatchesWarps runs barrier-heavy Fig 7 kernels under both
// policies with walkAudit attached: every barrier arrival and release,
// warp exit and scoreboard-blocked attempt must reach the dense walk
// state, not only the warp.
func TestWalkStateMatchesWarps(t *testing.T) {
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	for _, name := range []string{"dwt2d", "radixsort"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		k := w.Build(4)
		prepared, err := core.Prepare(k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Transform(k, core.Options{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			pol  Policy
			kern *isa.Kernel
		}{{NewStaticPolicy(cfg), prepared}, {NewRegMutexPolicy(cfg), res.Kernel}} {
			policy := c.pol.Name()
			audit := &walkAudit{}
			d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: c.kern},
				WithPolicy(c.pol), WithGlobal(w.Input(k, 1)), WithAudit(audit))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(); err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			if audit.checked == 0 {
				t.Fatalf("%s/%s: walk state never checked", name, policy)
			}
		}
	}
}
