package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Reg is an architected general-purpose register index (per thread).
type Reg uint8

// NoReg marks an unused register slot.
const NoReg Reg = 0xFF

// MaxRegs is the maximum number of architected registers a kernel may use.
// RegSet relies on register indices fitting in a 64-bit mask.
const MaxRegs = 64

// String returns the assembly form, e.g. "r7".
func (r Reg) String() string {
	if r == NoReg {
		return "r?"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// PReg is a predicate register index (per thread).
type PReg uint8

// NoPReg marks an unused predicate slot.
const NoPReg PReg = 0xFF

// MaxPRegs is the number of predicate registers per thread.
const MaxPRegs = 8

// String returns the assembly form, e.g. "p1".
func (p PReg) String() string {
	if p == NoPReg {
		return "p?"
	}
	return fmt.Sprintf("p%d", uint8(p))
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OpndNone OperandKind = iota
	OpndReg
	OpndImm
)

// Operand is a source operand: a register or an immediate.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int64
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: OpndReg, Reg: r} }

// Imm makes an integer immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpndImm, Imm: v} }

// FImm makes a floating-point immediate operand (stored as float64 bits).
func FImm(v float64) Operand { return Operand{Kind: OpndImm, Imm: int64(F2B(v))} }

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpndReg:
		return o.Reg.String()
	case OpndImm:
		return fmt.Sprintf("%d", o.Imm)
	default:
		return "_"
	}
}

// Guard is an optional predicate guard on an instruction (@p / @!p).
type Guard struct {
	Pred PReg // NoPReg when unguarded
	Neg  bool // true for @!p
}

// Unguarded reports whether the instruction executes for all active lanes.
func (g Guard) Unguarded() bool { return g.Pred == NoPReg }

// String renders the guard prefix, empty when unguarded.
func (g Guard) String() string {
	if g.Unguarded() {
		return ""
	}
	if g.Neg {
		return "@!" + g.Pred.String() + " "
	}
	return "@" + g.Pred.String() + " "
}

// Instr is one machine instruction. Instructions are addressed by their
// index in Kernel.Instrs; branch targets and reconvergence points are
// absolute indices.
type Instr struct {
	Op    Opcode
	Guard Guard

	Dst  Reg  // destination register when HasDst(Op); else NoReg
	PDst PReg // SETP destination predicate; else NoPReg

	Srcs [3]Operand
	Cmp  CmpOp      // for SETP
	Spec SpecialReg // for mov.special

	// Off is the constant word offset for memory operations
	// (effective address = value(Srcs[0]) + Off).
	Off int64

	// Target is the branch destination instruction index (OpBra).
	Target int
	// Reconv is the reconvergence instruction index for a potentially
	// divergent branch, the immediate post-dominator computed by the
	// compiler. -1 means "not computed / reconverge never".
	Reconv int

	// DeadAfter lists architected registers whose last (conservative)
	// use is this instruction. It is the compiler-provided dead-value
	// metadata that the RFV baseline consumes to free physical
	// registers early (Jeon et al. [3]); filled by the liveness pass.
	DeadAfter []Reg

	// Label optionally names this instruction as a branch target in
	// textual assembly.
	Label string
}

// NewInstr returns an Instr with the invariant "unused" fields set
// (NoReg destinations, unguarded, no reconvergence).
func NewInstr(op Opcode) Instr {
	return Instr{
		Op:     op,
		Guard:  Guard{Pred: NoPReg},
		Dst:    NoReg,
		PDst:   NoPReg,
		Reconv: -1,
		Target: -1,
	}
}

// Uses returns the set of general registers read by the instruction,
// including address and store-data registers.
func (in *Instr) Uses() RegSet {
	var s RegSet
	n := NumSrcs(in.Op)
	for i := 0; i < n; i++ {
		if in.Srcs[i].Kind == OpndReg {
			s = s.Add(in.Srcs[i].Reg)
		}
	}
	// Stores read both the address (src0) and the data (src1) — covered
	// by NumSrcs == 2 above. Nothing extra to add.
	return s
}

// Defs returns the set of general registers written by the instruction.
func (in *Instr) Defs() RegSet {
	if HasDst(in.Op) && in.Dst != NoReg {
		return NewRegSet(in.Dst)
	}
	return 0
}

// Touches returns Uses ∪ Defs: every architected register index the
// instruction's operand collector must map. This is what decides whether
// the instruction needs the extended register set (paper section III-B2).
func (in *Instr) Touches() RegSet { return in.Uses() | in.Defs() }

// String renders the instruction in assembly syntax (without its index),
// naming a branch target by its index, "@7".
func (in *Instr) String() string {
	return in.Format(func(pc int) string { return "@" + strconv.Itoa(pc) })
}

// Format renders the instruction in assembly syntax: the one printer of
// the instruction text, which asm.Parse reads back. target names a
// branch destination by instruction index.
func (in *Instr) Format(target func(pc int) string) string {
	var b strings.Builder
	b.WriteString(in.Guard.String())
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpSetp, OpSetpF:
		fmt.Fprintf(&b, ".%s %s, %s, %s", in.Cmp, in.PDst, in.Srcs[0], in.Srcs[1])
	case OpBra:
		b.WriteString(" " + target(in.Target))
	case OpMovSpecial:
		fmt.Fprintf(&b, " %s, %s", in.Dst, in.Spec)
	case OpLdGlobal, OpLdShared:
		fmt.Fprintf(&b, " %s, [%s%+d]", in.Dst, in.Srcs[0], in.Off)
	case OpStGlobal, OpStShared:
		fmt.Fprintf(&b, " [%s%+d], %s", in.Srcs[0], in.Off, in.Srcs[1])
	default:
		if HasDst(in.Op) { // nop, exit, bar.sync, acq and rel have no operands
			fmt.Fprintf(&b, " %s", in.Dst)
		}
		for i := 0; i < NumSrcs(in.Op); i++ {
			fmt.Fprintf(&b, ", %s", in.Srcs[i])
		}
	}
	return b.String()
}
