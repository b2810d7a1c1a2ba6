package sim

import "regmutex/internal/isa"

// decodeFlag marks the issue-time facts of one decoded instruction.
type decodeFlag uint8

const (
	flagDst    decodeFlag = 1 << iota // writes a general register (isa.HasDst)
	flagPDst                          // writes a predicate (SETP)
	flagSFU                           // takes the SM's SFU port
	flagGlobal                        // occupies a global-memory request slot
	flagAcqRel                        // an ACQ/REL primitive
)

// decoded is one instruction's issue-time facts, computed once per kernel
// (decodeKernel) so an issue attempt reads them instead of re-deriving
// them from the opcode. It is the one place that maps an opcode to its
// scoreboard operands, latency, structural class and register-file
// traffic.
type decoded struct {
	in *isa.Instr

	lat   int64 // issue-to-writeback latency
	flags decodeFlag

	// rfReads counts register sources (warp-row reads per issue).
	rfReads uint8

	// The scoreboard checks regs[:nregs] (the destination, then the
	// register sources) and preds[:npreds] (the SETP destination, then
	// the guard).
	nregs  uint8
	npreds uint8
	regs   [4]isa.Reg
	preds  [2]isa.PReg

	// nsrc is isa.NumSrcs; imm[i] is source i's immediate broadcast
	// across the lanes, nil for a register source. The rows are
	// read-only: execute only reads sources.
	nsrc uint8
	imm  [3]*row
}

// decodeKernel builds k's issue table under timing t: one entry per
// instruction, with every immediate source pre-broadcast into a row of
// one shared backing array.
func decodeKernel(k *isa.Kernel, t Timing) []decoded {
	nimm := 0
	for i := range k.Instrs {
		in := &k.Instrs[i]
		for s := 0; s < isa.NumSrcs(in.Op); s++ {
			if in.Srcs[s].Kind == isa.OpndImm {
				nimm++
			}
		}
	}
	rows := make([]row, nimm)
	code := make([]decoded, len(k.Instrs))
	for i := range k.Instrs {
		code[i] = decodeInstr(&k.Instrs[i], t, &rows)
	}
	return code
}

// decodeInstr decodes one instruction, taking its immediate rows from
// the front of *rows.
func decodeInstr(in *isa.Instr, t Timing, rows *[]row) decoded {
	d := decoded{in: in, lat: latencyOf(t, in.Op), nsrc: uint8(isa.NumSrcs(in.Op))}
	if isa.HasDst(in.Op) {
		d.flags |= flagDst
		d.regs[d.nregs] = in.Dst
		d.nregs++
	}
	for s := 0; s < int(d.nsrc); s++ {
		switch o := &in.Srcs[s]; o.Kind {
		case isa.OpndReg:
			d.regs[d.nregs] = o.Reg
			d.nregs++
			d.rfReads++
		case isa.OpndImm:
			r := &(*rows)[0]
			*rows = (*rows)[1:]
			for l := range r {
				r[l] = uint64(o.Imm)
			}
			d.imm[s] = r
		}
	}
	if in.Op == isa.OpSetp || in.Op == isa.OpSetpF {
		d.flags |= flagPDst
		d.preds[d.npreds] = in.PDst
		d.npreds++
	}
	if !in.Guard.Unguarded() {
		d.preds[d.npreds] = in.Guard.Pred
		d.npreds++
	}
	switch in.Op {
	case isa.OpLdGlobal, isa.OpStGlobal:
		d.flags |= flagGlobal
	case isa.OpAcq, isa.OpRel:
		d.flags |= flagAcqRel
	}
	if isa.ClassOf(in.Op) == isa.ClassSFU {
		d.flags |= flagSFU
	}
	return d
}

// latencyOf returns the issue-to-writeback latency of op under t.
func latencyOf(t Timing, op isa.Opcode) int64 {
	switch isa.ClassOf(op) {
	case isa.ClassFP:
		return t.FPLatency
	case isa.ClassSFU:
		return t.SFULatency
	case isa.ClassMem:
		if op == isa.OpLdShared || op == isa.OpStShared {
			return t.SharedLatency
		}
		return t.GlobalLatency
	default:
		return t.ALULatency
	}
}

// wakes reports whether the instruction's writeback can unblock a
// scoreboard-stalled warp (it writes a register or a predicate).
func (d *decoded) wakes() bool { return d.flags&(flagDst|flagPDst) != 0 }

// readyAt returns the earliest cycle at which every register and
// predicate the instruction touches has no pending write in w — the
// bound the schedulers cache to skip a blocked warp.
func (d *decoded) readyAt(w *Warp) int64 {
	t := int64(0)
	for _, r := range d.regs[:d.nregs] {
		t = max(t, w.regReady[r])
	}
	for _, p := range d.preds[:d.npreds] {
		t = max(t, w.predReady[p])
	}
	return t
}

// markWrite records the writeback cycle of the instruction's register
// and predicate destinations in w's scoreboard.
func (d *decoded) markWrite(w *Warp, ready int64) {
	if d.flags&flagDst != 0 {
		w.regReady[d.in.Dst] = ready
	}
	if d.flags&flagPDst != 0 {
		w.predReady[d.in.PDst] = ready
	}
}

// source resolves source operand i for w: the pre-broadcast immediate
// row, or the register's row.
func (d *decoded) source(w *Warp, i int) *row {
	if r := d.imm[i]; r != nil {
		return r
	}
	return &w.regs[d.in.Srcs[i].Reg]
}
