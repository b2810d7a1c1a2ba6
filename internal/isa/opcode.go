// Package isa defines the register-level instruction set that the RegMutex
// tool chain compiles and the simulator executes.
//
// The ISA is modelled after the PTXPlus representation used by the paper:
// a load/store architecture over per-thread architected registers, guard
// predicates, SIMT branches with explicit reconvergence points, global and
// CTA-shared memory, CTA-wide barriers, and the two RegMutex primitives
// ACQ and REL that the compiler injects (section III-A3 of the paper).
package isa

import (
	"fmt"
	"strings"
)

// Opcode identifies an instruction's operation.
type Opcode uint8

// The instruction set. Opcodes are grouped by functional unit class, which
// the simulator uses to pick issue latencies and structural resources.
const (
	OpNop Opcode = iota

	// Integer ALU.
	OpMov  // Rd = Sa
	OpIAdd // Rd = Sa + Sb
	OpISub // Rd = Sa - Sb
	OpIMul // Rd = Sa * Sb
	OpIMad // Rd = Sa * Sb + Sc
	OpIMin // Rd = min(Sa, Sb)
	OpIMax // Rd = max(Sa, Sb)
	OpIAbs // Rd = |Sa|
	OpShl  // Rd = Sa << Sb
	OpShr  // Rd = Sa >> Sb (arithmetic)
	OpAnd  // Rd = Sa & Sb
	OpOr   // Rd = Sa | Sb
	OpXor  // Rd = Sa ^ Sb

	// Floating point (values held in registers via float64 bit patterns).
	OpFAdd // Rd = Sa + Sb
	OpFSub // Rd = Sa - Sb
	OpFMul // Rd = Sa * Sb
	OpFFma // Rd = Sa * Sb + Sc
	OpFMin // Rd = min(Sa, Sb)
	OpFMax // Rd = max(Sa, Sb)
	OpFAbs // Rd = |Sa|
	OpI2F  // Rd = float(Sa)
	OpF2I  // Rd = int(Sa), truncating

	// Special function unit (transcendentals), longer latency and a
	// structural port limit in the simulator.
	OpFSqrt
	OpFRcp // reciprocal
	OpFSin
	OpFCos
	OpFExp
	OpFLog

	// Predicates and control flow.
	OpSetp  // Pd = Sa <cmp> Sb (integer)
	OpSetpF // Pd = Sa <cmp> Sb (floating point)
	OpSelp  // Rd = Pg ? Sa : Sb (uses Pred as the selector)
	OpBra   // branch to Target; divergence reconverges at Reconv
	OpExit  // thread terminates

	// Memory. Addresses are word indices: effective = Sa + Imm offset.
	OpLdGlobal // Rd = global[Sa + off]
	OpStGlobal // global[Sa + off] = Sb
	OpLdShared // Rd = shared[Sa + off]
	OpStShared // shared[Sa + off] = Sb

	// Synchronisation.
	OpBarSync // CTA-wide barrier (PTX bar.sync)

	// RegMutex primitives (paper section III-A3). Injected by the
	// compiler; decoded as barrier-class ops and handled at issue.
	OpAcq // acquire the extended register set from the SRP
	OpRel // release the extended register set back to the SRP

	// Reads a special hardware value into a register.
	OpMovSpecial

	opEnd // sentinel, keep last
)

// NumOpcodes is the count of defined opcodes (useful for tables).
const NumOpcodes = int(opEnd)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpIAdd: "iadd", OpISub: "isub",
	OpIMul: "imul", OpIMad: "imad", OpIMin: "imin", OpIMax: "imax",
	OpIAbs: "iabs", OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul",
	OpFFma: "ffma", OpFMin: "fmin", OpFMax: "fmax", OpFAbs: "fabs",
	OpI2F: "i2f", OpF2I: "f2i", OpFSqrt: "fsqrt", OpFRcp: "frcp",
	OpFSin: "fsin", OpFCos: "fcos", OpFExp: "fexp", OpFLog: "flog",
	OpSetp: "setp", OpSetpF: "setp.f", OpSelp: "selp", OpBra: "bra", OpExit: "exit",
	OpLdGlobal: "ld.global", OpStGlobal: "st.global",
	OpLdShared: "ld.shared", OpStShared: "st.shared",
	OpBarSync: "bar.sync", OpAcq: "acq", OpRel: "rel",
	OpMovSpecial: "mov.special",
}

// String returns the assembly mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// OpcodeNamed returns the opcode whose mnemonic is name, the inverse of
// Opcode.String; a setp mnemonic is named without its comparison.
func OpcodeNamed(name string) (Opcode, bool) { return named[Opcode](opNames[:], name) }

// named returns the index of name in an assembly name table.
func named[T ~uint8](names []string, name string) (T, bool) {
	for i, n := range names {
		if n == name {
			return T(i), true
		}
	}
	return 0, false
}

// Class groups opcodes by the functional unit that executes them.
type Class uint8

// Functional unit classes.
const (
	ClassALU  Class = iota // integer / simple FP pipeline
	ClassFP                // FP multiply-add pipeline
	ClassSFU               // special function unit
	ClassMem               // LD/ST pipeline
	ClassCtrl              // branches, exit
	ClassSync              // barrier, acq, rel (issue-stage handling)
)

// ClassOf reports the functional unit class of op.
func ClassOf(op Opcode) Class {
	switch op {
	case OpFAdd, OpFSub, OpFMul, OpFFma, OpFMin, OpFMax, OpFAbs, OpI2F, OpF2I:
		return ClassFP
	case OpFSqrt, OpFRcp, OpFSin, OpFCos, OpFExp, OpFLog:
		return ClassSFU
	case OpLdGlobal, OpStGlobal, OpLdShared, OpStShared:
		return ClassMem
	case OpBra, OpExit:
		return ClassCtrl
	case OpBarSync, OpAcq, OpRel:
		return ClassSync
	default:
		return ClassALU
	}
}

// HasDst reports whether op writes a general destination register.
func HasDst(op Opcode) bool {
	switch op {
	case OpNop, OpSetp, OpSetpF, OpBra, OpExit, OpStGlobal, OpStShared,
		OpBarSync, OpAcq, OpRel:
		return false
	}
	return true
}

// NumSrcs reports how many source operands op consumes.
func NumSrcs(op Opcode) int {
	switch op {
	case OpNop, OpExit, OpBarSync, OpAcq, OpRel, OpMovSpecial, OpBra:
		return 0
	case OpMov, OpIAbs, OpFAbs, OpI2F, OpF2I,
		OpFSqrt, OpFRcp, OpFSin, OpFCos, OpFExp, OpFLog,
		OpLdGlobal, OpLdShared:
		return 1
	case OpIMad, OpFFma:
		return 3
	default:
		return 2
	}
}

// CmpOp is the comparison performed by SETP.
type CmpOp uint8

// Comparison operators for SETP.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the mnemonic suffix for the comparison.
func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// CmpNamed returns the comparison whose mnemonic suffix is name ("lt").
func CmpNamed(name string) (CmpOp, bool) { return named[CmpOp](cmpNames[:], name) }

// SpecialReg names a hardware-provided per-thread value readable with
// mov.special.
type SpecialReg uint8

// Special registers (one-dimensional launch geometry).
const (
	SpecTID    SpecialReg = iota // thread index within the CTA
	SpecNTID                     // threads per CTA
	SpecCTAID                    // CTA index within the grid
	SpecNCTAID                   // CTAs in the grid
	SpecLaneID                   // lane within the warp
	SpecWarpID                   // warp index within the CTA
)

var specialNames = [...]string{"tid", "ntid", "ctaid", "nctaid", "laneid", "warpid"}

// String returns the assembly name of the special register.
func (s SpecialReg) String() string {
	if int(s) < len(specialNames) {
		return "%" + specialNames[s]
	}
	return fmt.Sprintf("%%spec(%d)", uint8(s))
}

// SpecialNamed returns the special register whose assembly name is name
// ("%tid").
func SpecialNamed(name string) (SpecialReg, bool) {
	if rest, ok := strings.CutPrefix(name, "%"); ok {
		return named[SpecialReg](specialNames[:], rest)
	}
	return 0, false
}
