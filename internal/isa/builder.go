package isa

import (
	"fmt"
	"slices"
)

// Builder assembles a Kernel instruction by instruction, with symbolic
// labels for branch targets. The workload kernels in internal/workloads
// are all authored through a Builder, and asm.Parse emits through one.
type Builder struct {
	k       Kernel
	labels  map[string]int // label -> instruction index
	fixups  []fixup        // branches to resolve, in emission order
	pending []string       // labels waiting for the next instruction
	guard   Guard          // guard applied to the next instruction
	err     error
}

// fixup records that the branch at instruction at targets label.
type fixup struct {
	at    int
	label string
}

// NewBuilder starts a kernel with the given name and resource shape.
func NewBuilder(name string, numRegs, numPRegs, threadsPerCTA int) *Builder {
	return &Builder{
		k: Kernel{
			Name:          name,
			NumRegs:       numRegs,
			NumPRegs:      numPRegs,
			ThreadsPerCTA: threadsPerCTA,
			GridCTAs:      1,
		},
		labels: make(map[string]int),
		guard:  Guard{Pred: NoPReg},
	}
}

// SetGrid sets the default launch grid size in CTAs.
func (b *Builder) SetGrid(ctas int) *Builder { b.k.GridCTAs = ctas; return b }

// SetSharedMem sets the CTA shared-memory footprint in words.
func (b *Builder) SetSharedMem(words int) *Builder { b.k.SharedMemWords = words; return b }

// SetGlobalMem sets the global memory footprint in words.
func (b *Builder) SetGlobalMem(words int) *Builder { b.k.GlobalMemWords = words; return b }

// Header returns the kernel under construction for setting its name,
// launch resources and register split; instructions are added only by
// emitting them.
func (b *Builder) Header() *Kernel { return &b.k }

// Err returns the first error recorded so far (a duplicate label), if
// any; Kernel reports it too.
func (b *Builder) Err() error { return b.err }

// Label declares that the next emitted instruction carries this label.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		if b.err == nil {
			b.err = fmt.Errorf("isa: builder %s: duplicate label %q", b.k.Name, name)
		}
		return b
	}
	b.labels[name] = -1 // reserved; resolved at next emit
	b.pending = append(b.pending, name)
	return b
}

// If guards the next instruction with @p.
func (b *Builder) If(p PReg) *Builder { b.guard = Guard{Pred: p}; return b }

// IfNot guards the next instruction with @!p.
func (b *Builder) IfNot(p PReg) *Builder { b.guard = Guard{Pred: p, Neg: true}; return b }

// Emit appends in, guarded by a preceding If or IfNot and carrying the
// first label declared since the last emit. Branches go through Bra,
// which records the target label.
func (b *Builder) Emit(in Instr) *Builder {
	in.Guard = b.guard
	b.guard = Guard{Pred: NoPReg}
	idx := len(b.k.Instrs)
	for _, l := range b.pending {
		b.labels[l] = idx
		if in.Label == "" {
			in.Label = l
		}
	}
	b.pending = b.pending[:0]
	b.k.Instrs = append(b.k.Instrs, in)
	return b
}

func rrr(op Opcode, d Reg, srcs ...Operand) Instr {
	in := NewInstr(op)
	in.Dst = d
	copy(in.Srcs[:], srcs)
	return in
}

// Mov emits d = a.
func (b *Builder) Mov(d Reg, a Operand) *Builder { return b.Emit(rrr(OpMov, d, a)) }

// MovSpecial emits d = special register s.
func (b *Builder) MovSpecial(d Reg, s SpecialReg) *Builder {
	in := NewInstr(OpMovSpecial)
	in.Dst = d
	in.Spec = s
	return b.Emit(in)
}

// IAdd emits d = a + c.
func (b *Builder) IAdd(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpIAdd, d, a, c)) }

// ISub emits d = a - c.
func (b *Builder) ISub(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpISub, d, a, c)) }

// IMul emits d = a * c.
func (b *Builder) IMul(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpIMul, d, a, c)) }

// IMad emits d = a*x + y.
func (b *Builder) IMad(d Reg, a, x, y Operand) *Builder { return b.Emit(rrr(OpIMad, d, a, x, y)) }

// IMin emits d = min(a, c).
func (b *Builder) IMin(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpIMin, d, a, c)) }

// IMax emits d = max(a, c).
func (b *Builder) IMax(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpIMax, d, a, c)) }

// IAbs emits d = |a|.
func (b *Builder) IAbs(d Reg, a Operand) *Builder { return b.Emit(rrr(OpIAbs, d, a)) }

// Shl emits d = a << c.
func (b *Builder) Shl(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpShl, d, a, c)) }

// Shr emits d = a >> c.
func (b *Builder) Shr(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpShr, d, a, c)) }

// And emits d = a & c.
func (b *Builder) And(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpAnd, d, a, c)) }

// Or emits d = a | c.
func (b *Builder) Or(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpOr, d, a, c)) }

// Xor emits d = a ^ c.
func (b *Builder) Xor(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpXor, d, a, c)) }

// FAdd emits d = a + c (floating point).
func (b *Builder) FAdd(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpFAdd, d, a, c)) }

// FSub emits d = a - c.
func (b *Builder) FSub(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpFSub, d, a, c)) }

// FMul emits d = a * c.
func (b *Builder) FMul(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpFMul, d, a, c)) }

// FFma emits d = a*x + y.
func (b *Builder) FFma(d Reg, a, x, y Operand) *Builder { return b.Emit(rrr(OpFFma, d, a, x, y)) }

// FMin emits d = min(a, c).
func (b *Builder) FMin(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpFMin, d, a, c)) }

// FMax emits d = max(a, c).
func (b *Builder) FMax(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpFMax, d, a, c)) }

// FAbs emits d = |a|.
func (b *Builder) FAbs(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFAbs, d, a)) }

// I2F emits d = float(a).
func (b *Builder) I2F(d Reg, a Operand) *Builder { return b.Emit(rrr(OpI2F, d, a)) }

// F2I emits d = trunc(a).
func (b *Builder) F2I(d Reg, a Operand) *Builder { return b.Emit(rrr(OpF2I, d, a)) }

// FSqrt emits d = sqrt(a).
func (b *Builder) FSqrt(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFSqrt, d, a)) }

// FRcp emits d = 1/a.
func (b *Builder) FRcp(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFRcp, d, a)) }

// FSin emits d = sin(a).
func (b *Builder) FSin(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFSin, d, a)) }

// FCos emits d = cos(a).
func (b *Builder) FCos(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFCos, d, a)) }

// FExp emits d = exp(a).
func (b *Builder) FExp(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFExp, d, a)) }

// FLog emits d = log(|a|+tiny).
func (b *Builder) FLog(d Reg, a Operand) *Builder { return b.Emit(rrr(OpFLog, d, a)) }

// Setp emits p = a <cmp> c.
func (b *Builder) Setp(p PReg, cmp CmpOp, a, c Operand) *Builder {
	in := NewInstr(OpSetp)
	in.PDst = p
	in.Cmp = cmp
	in.Srcs[0] = a
	in.Srcs[1] = c
	return b.Emit(in)
}

// SetpF emits p = a <cmp> c over floating-point values.
func (b *Builder) SetpF(p PReg, cmp CmpOp, a, c Operand) *Builder {
	in := NewInstr(OpSetpF)
	in.PDst = p
	in.Cmp = cmp
	in.Srcs[0] = a
	in.Srcs[1] = c
	return b.Emit(in)
}

// Selp emits d = guard ? a : c. Call If/IfNot first to set the selector.
func (b *Builder) Selp(d Reg, a, c Operand) *Builder { return b.Emit(rrr(OpSelp, d, a, c)) }

// Bra emits an unconditional branch to the label.
func (b *Builder) Bra(label string) *Builder {
	in := NewInstr(OpBra)
	b.fixups = append(b.fixups, fixup{len(b.k.Instrs), label})
	return b.Emit(in)
}

// BraIf emits @p bra label.
func (b *Builder) BraIf(p PReg, label string) *Builder {
	b.If(p)
	return b.Bra(label)
}

// BraIfNot emits @!p bra label.
func (b *Builder) BraIfNot(p PReg, label string) *Builder {
	b.IfNot(p)
	return b.Bra(label)
}

// LdGlobal emits d = global[addr + off].
func (b *Builder) LdGlobal(d Reg, addr Operand, off int64) *Builder {
	in := rrr(OpLdGlobal, d, addr)
	in.Off = off
	return b.Emit(in)
}

// StGlobal emits global[addr + off] = v.
func (b *Builder) StGlobal(addr Operand, off int64, v Operand) *Builder {
	in := NewInstr(OpStGlobal)
	in.Srcs[0] = addr
	in.Srcs[1] = v
	in.Off = off
	return b.Emit(in)
}

// LdShared emits d = shared[addr + off].
func (b *Builder) LdShared(d Reg, addr Operand, off int64) *Builder {
	in := rrr(OpLdShared, d, addr)
	in.Off = off
	return b.Emit(in)
}

// StShared emits shared[addr + off] = v.
func (b *Builder) StShared(addr Operand, off int64, v Operand) *Builder {
	in := NewInstr(OpStShared)
	in.Srcs[0] = addr
	in.Srcs[1] = v
	in.Off = off
	return b.Emit(in)
}

// Bar emits a CTA-wide barrier.
func (b *Builder) Bar() *Builder { return b.Emit(NewInstr(OpBarSync)) }

// Acq emits an extended-set acquire primitive. Normally injected by the
// compiler; exposed for tests and hand-written assembly.
func (b *Builder) Acq() *Builder { return b.Emit(NewInstr(OpAcq)) }

// Rel emits an extended-set release primitive.
func (b *Builder) Rel() *Builder { return b.Emit(NewInstr(OpRel)) }

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.Emit(NewInstr(OpNop)) }

// Exit emits thread termination.
func (b *Builder) Exit() *Builder { return b.Emit(NewInstr(OpExit)) }

// Kernel resolves labels and returns the finished, validated kernel. The
// kernel takes over the builder's instructions, so a Builder builds one
// kernel.
func (b *Builder) Kernel() (*Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.pending) > 0 {
		return nil, fmt.Errorf("isa: builder %s: labels %v at end of kernel", b.k.Name, b.pending)
	}
	for _, f := range b.fixups {
		tgt, ok := b.labels[f.label]
		if !ok || tgt < 0 {
			return nil, fmt.Errorf("isa: builder %s: undefined label %q", b.k.Name, f.label)
		}
		b.k.Instrs[f.at].Target = tgt
	}
	k := b.k
	k.Instrs = slices.Clip(k.Instrs)
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return &k, nil
}

// MustKernel is Kernel, panicking on error; used by the static workload
// definitions whose correctness is covered by tests.
func (b *Builder) MustKernel() *Kernel {
	k, err := b.Kernel()
	if err != nil {
		panic(err)
	}
	return k
}
