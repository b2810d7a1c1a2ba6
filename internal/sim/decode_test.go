package sim

import (
	"fmt"
	"math/bits"
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
// dense walk state agrees with the facts of the warps in its pick list:
// every live warp's scoreboard bound is exact (its next instruction's
// readyAt), and each entry sits in the right set. An entry is ready iff
// its bound expired by the cycle the scheduler's wake wheel was last
// drained through (base-1, before now); the wheel holds exactly the
// blocked entries, each at its bound.
type walkAudit struct{ checked int }

func (a *walkAudit) CheckCycle(d *Device, now int64) error {
	for _, sm := range d.sms {
		for _, w := range sm.warps {
			if w.Finished() {
				continue
			}
			if got, want := w.blockedUntil, w.CTA.code[w.NextPC()].readyAt(w); got != want {
				return fmt.Errorf("cycle %d SM%d warp %d: bound %d, its next instruction is ready at %d",
					now, sm.id, w.Widx, got, want)
			}
		}
		for s := range sm.schedulers {
			sched := &sm.schedulers[s]
			if len(sched.until) != len(sched.order) {
				return fmt.Errorf("cycle %d SM%d scheduler %d: %d walk entries for %d warps",
					now, sm.id, s, len(sched.until), len(sched.order))
			}
			wh := &sched.wake
			if wh.base > now {
				return fmt.Errorf("cycle %d SM%d scheduler %d: wake wheel drained through %d, past the current cycle",
					now, sm.id, s, wh.base-1)
			}
			for i := 0; i < 64*len(sched.ready); i++ {
				ready, blocked := bitSet(sched.ready, i), bitSet(sched.blocked, i)
				if i >= len(sched.order) {
					if ready || blocked {
						return fmt.Errorf("cycle %d SM%d scheduler %d: position %d past the %d-entry pick list is in a set",
							now, sm.id, s, i, len(sched.order))
					}
					continue
				}
				w := sched.order[i]
				u := sched.until[i]
				if want := w.walkUntil(); u != want {
					return fmt.Errorf("cycle %d SM%d scheduler %d: entry %d (warp %d) is %d, its facts say %d",
						now, sm.id, s, i, w.Widx, u, want)
				}
				wantReady, wantBlocked := u != parked && u < wh.base, u != parked && u >= wh.base
				if ready != wantReady || blocked != wantBlocked {
					return fmt.Errorf("cycle %d SM%d scheduler %d: entry %d (warp %d, bound %d, drained through %d): ready %v blocked %v, want %v %v",
						now, sm.id, s, i, w.Widx, u, wh.base-1, ready, blocked, wantReady, wantBlocked)
				}
				if wantBlocked && !wheelHolds(wh, u, i) {
					return fmt.Errorf("cycle %d SM%d scheduler %d: blocked entry %d (warp %d) is not on the wake wheel at its bound %d",
						now, sm.id, s, i, w.Widx, u)
				}
			}
			// The wheel holds nothing else: every position on it is a
			// blocked entry, in the row of its bound or far.
			for c := wh.base; c <= wh.base+wh.mask; c++ {
				r := c & wh.mask
				row := wh.rows[r*int64(wh.words) : (r+1)*int64(wh.words)]
				for k, x := range row {
					if x != 0 && !bitSet(wh.nz, int(r)) {
						return fmt.Errorf("cycle %d SM%d scheduler %d: row of cycle %d holds positions but is not marked",
							now, sm.id, s, c)
					}
					for ; x != 0; x &= x - 1 {
						i := k<<6 + bits.TrailingZeros64(x)
						if i >= len(sched.order) || !bitSet(sched.blocked, i) || sched.until[i] != c {
							return fmt.Errorf("cycle %d SM%d scheduler %d: position %d waits at cycle %d but is not blocked until then",
								now, sm.id, s, i, c)
						}
					}
				}
			}
			for i := 0; i < 64*wh.words; i++ {
				if bitSet(wh.far, i) && (i >= len(sched.order) || !bitSet(sched.blocked, i) || sched.until[i] < wh.farAt) {
					return fmt.Errorf("cycle %d SM%d scheduler %d: position %d waits far but is not blocked past %d",
						now, sm.id, s, i, wh.farAt)
				}
			}
			a.checked++
		}
	}
	return nil
}

// bitSet reports whether bit i of set is set.
func bitSet(set []uint64, i int) bool { return set[i>>6]>>uint(i&63)&1 != 0 }

// wheelHolds reports whether position i waits on wh under bound t: in
// the row of cycle t, or far, where farAt is no later than t.
func wheelHolds(wh *wakeWheel, t int64, i int) bool {
	if bitSet(wh.far, i) {
		return wh.farAt <= t
	}
	return t-wh.base <= wh.mask && bitSet(wh.rows[(t&wh.mask)*int64(wh.words):], i)
}

func (a *walkAudit) CheckEnd(*Device) error { return nil }

// TestWalkStateMatchesWarps runs barrier-heavy Fig 7 kernels under both
// policies with walkAudit attached: every issue's new scoreboard bound,
// every barrier arrival and release, every warp exit and every pick-list
// rebuild must reach the dense walk state and the wake wheel, not only
// the warp.
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
