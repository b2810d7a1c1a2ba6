// Package asm provides the textual assembly format for ISA kernels
// (.kasm): a printer (Format) and a parser (Parse) that round-trip
// losslessly. The format plays the role PTXPlus plays for GPGPU-Sim — a
// human-readable, editable form of the kernel that the compiler passes
// and the simulator agree on.
//
// The instruction syntax belongs to isa: Format prints each instruction
// with isa.Instr.Format, and Parse reads mnemonics, comparisons and
// special registers from isa's name tables and emits through an
// isa.Builder, which resolves labels. This package adds the directives,
// labels, comments and the scalar grammar. A scalar must be the whole
// token, or its line is refused:
//
//	register   r<digits>            r0 .. r63
//	predicate  p<digits>            p0 .. p7 (a guard is @p1 or @!p1)
//	immediate  [+|-]<digits>        a decimal int64: 12, -5, +3
//	address    [rN]  [rN+k]  [rN-k] k an immediate, so [r2+-3] is [r2-3]
//	directive  .regs <immediate>    and .pregs .threads .grid .shared
//	                                .global .baseset .extset
//
// Hex, exponents and trailing text (0x10, 1e3, r5x, 12abc) are errors.
//
// Example:
//
//	.kernel vecadd
//	.regs 8
//	.pregs 1
//	.threads 128
//	.grid 4
//	.global 1536
//
//	    mov.special r0, %tid
//	    mov.special r1, %ctaid
//	    imad r2, r1, 128, r0
//	    ld.global r3, [r2+0]
//	    ld.global r4, [r2+512]
//	    iadd r5, r3, r4
//	    st.global [r2+1024], r5
//	    exit
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"regmutex/internal/isa"
)

// Format renders the kernel as assembly text. Branch targets keep their
// labels; a target without one is named L<index>.
func Format(k *isa.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", k.Name)
	fmt.Fprintf(&b, ".regs %d\n", k.NumRegs)
	fmt.Fprintf(&b, ".pregs %d\n", k.NumPRegs)
	fmt.Fprintf(&b, ".threads %d\n", k.ThreadsPerCTA)
	fmt.Fprintf(&b, ".grid %d\n", k.GridCTAs)
	if k.SharedMemWords > 0 {
		fmt.Fprintf(&b, ".shared %d\n", k.SharedMemWords)
	}
	if k.GlobalMemWords > 0 {
		fmt.Fprintf(&b, ".global %d\n", k.GlobalMemWords)
	}
	if k.BaseSet > 0 {
		fmt.Fprintf(&b, ".baseset %d\n", k.BaseSet)
	}
	if k.ExtSet > 0 {
		fmt.Fprintf(&b, ".extset %d\n", k.ExtSet)
	}
	b.WriteByte('\n')

	isTarget := make([]bool, len(k.Instrs))
	for i := range k.Instrs {
		if in := &k.Instrs[i]; in.Op == isa.OpBra {
			isTarget[in.Target] = true
		}
	}
	label := func(pc int) string {
		if l := k.Instrs[pc].Label; l != "" {
			return l
		}
		return "L" + strconv.Itoa(pc)
	}
	for i := range k.Instrs {
		if isTarget[i] {
			fmt.Fprintf(&b, "%s:\n", label(i))
		}
		fmt.Fprintf(&b, "    %s\n", k.Instrs[i].Format(label))
	}
	return b.String()
}

// Parse assembles the textual form back into a kernel. Errors name the
// source line, except a branch to an undefined label, which is found
// only at the end.
func Parse(src string) (*isa.Kernel, error) {
	b := isa.NewBuilder("", 0, 0, 0).SetGrid(0) // the text must give .grid
	for ln, raw := range strings.Split(src, "\n") {
		line, _, _ := strings.Cut(raw, ";")
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		err := parseLine(b, line)
		if err == nil {
			err = b.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", ln+1, err)
		}
	}
	return b.Kernel()
}

func parseLine(b *isa.Builder, line string) error {
	if strings.HasPrefix(line, ".") {
		return directive(b.Header(), line)
	}
	if name, ok := strings.CutSuffix(line, ":"); ok {
		if name == "" {
			return errors.New("empty label")
		}
		b.Label(name)
		return nil
	}
	return instr(b, line)
}

func directive(k *isa.Kernel, line string) error {
	name, rest, _ := cutSpace(line)
	var field *int
	switch name {
	case ".kernel":
		k.Name = rest
		return nil
	case ".regs":
		field = &k.NumRegs
	case ".pregs":
		field = &k.NumPRegs
	case ".threads":
		field = &k.ThreadsPerCTA
	case ".grid":
		field = &k.GridCTAs
	case ".shared":
		field = &k.SharedMemWords
	case ".global":
		field = &k.GlobalMemWords
	case ".baseset":
		field = &k.BaseSet
	case ".extset":
		field = &k.ExtSet
	default:
		return fmt.Errorf("unknown directive %s", name)
	}
	v, err := strconv.Atoi(rest)
	if err != nil {
		return fmt.Errorf("directive %s needs a decimal integer, have %q", name, rest)
	}
	*field = v
	return nil
}

// cutSpace splits s at its first space or tab and trims the tail.
func cutSpace(s string) (head, tail string, found bool) {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:]), true
	}
	return s, "", false
}

func instr(b *isa.Builder, line string) error {
	if g, ok := strings.CutPrefix(line, "@"); ok {
		g, rest, found := cutSpace(g)
		if !found {
			return errors.New("guard without instruction")
		}
		g, neg := strings.CutPrefix(g, "!")
		p, err := pred(g)
		if err != nil {
			return err
		}
		if neg {
			b.IfNot(p)
		} else {
			b.If(p)
		}
		line = rest
	}
	mnemonic, rest, _ := cutSpace(line)
	op, cmp, err := opcode(mnemonic)
	if err != nil {
		return err
	}
	in := isa.NewInstr(op)
	in.Cmp = cmp
	args := splitOperands(rest)
	if err := operands(&in, args); err != nil {
		return fmt.Errorf("%s: %w", mnemonic, err)
	}
	if op == isa.OpBra {
		b.Bra(args[0])
	} else {
		b.Emit(in)
	}
	return nil
}

// opcode reads a mnemonic. setp and setp.f carry their comparison as a
// last suffix, "setp.f.lt".
func opcode(mnemonic string) (isa.Opcode, isa.CmpOp, error) {
	if i := strings.LastIndexByte(mnemonic, '.'); i > 0 {
		if op, ok := isa.OpcodeNamed(mnemonic[:i]); ok && (op == isa.OpSetp || op == isa.OpSetpF) {
			cmp, ok := isa.CmpNamed(mnemonic[i+1:])
			if !ok {
				return 0, 0, fmt.Errorf("unknown comparison %q", mnemonic[i+1:])
			}
			return op, cmp, nil
		}
	}
	op, ok := isa.OpcodeNamed(mnemonic)
	if !ok {
		return 0, 0, fmt.Errorf("unknown opcode %q", mnemonic)
	}
	return op, 0, nil
}

func splitOperands(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// operands fills in's operands from args; a branch's one argument is its
// label, which the caller hands to the Builder.
func operands(in *isa.Instr, args []string) error {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(args))
		}
		return nil
	}
	var err error
	switch in.Op {
	case isa.OpNop, isa.OpExit, isa.OpBarSync, isa.OpAcq, isa.OpRel:
		return need(0)
	case isa.OpBra:
		return need(1)
	case isa.OpMovSpecial:
		if err := need(2); err != nil {
			return err
		}
		if in.Dst, err = reg(args[0]); err != nil {
			return err
		}
		var ok bool
		if in.Spec, ok = isa.SpecialNamed(args[1]); !ok {
			return fmt.Errorf("unknown special register %q", args[1])
		}
		return nil
	case isa.OpSetp, isa.OpSetpF:
		if err := need(3); err != nil {
			return err
		}
		if in.PDst, err = pred(args[0]); err != nil {
			return err
		}
		return sources(in, args[1:])
	case isa.OpLdGlobal, isa.OpLdShared:
		if err := need(2); err != nil {
			return err
		}
		if in.Dst, err = reg(args[0]); err != nil {
			return err
		}
		in.Srcs[0], in.Off, err = address(args[1])
		return err
	case isa.OpStGlobal, isa.OpStShared:
		if err := need(2); err != nil {
			return err
		}
		if in.Srcs[0], in.Off, err = address(args[0]); err != nil {
			return err
		}
		in.Srcs[1], err = operand(args[1])
		return err
	default:
		if err := need(1 + isa.NumSrcs(in.Op)); err != nil {
			return err
		}
		if in.Dst, err = reg(args[0]); err != nil {
			return err
		}
		return sources(in, args[1:])
	}
}

func sources(in *isa.Instr, args []string) error {
	for i, a := range args {
		o, err := operand(a)
		if err != nil {
			return err
		}
		in.Srcs[i] = o
	}
	return nil
}

// index parses prefix followed by decimal digits naming one of limit
// slots, "r12".
func index(s, prefix string, limit int) (int, bool) {
	digits, ok := strings.CutPrefix(s, prefix)
	if !ok || digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil && n < limit
}

func reg(s string) (isa.Reg, error) {
	n, ok := index(s, "r", isa.MaxRegs)
	if !ok {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func pred(s string) (isa.PReg, error) {
	n, ok := index(s, "p", isa.MaxPRegs)
	if !ok {
		return isa.NoPReg, fmt.Errorf("bad predicate %q", s)
	}
	return isa.PReg(n), nil
}

func operand(s string) (isa.Operand, error) {
	if strings.HasPrefix(s, "r") {
		r, err := reg(s)
		return isa.R(r), err
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return isa.Operand{}, fmt.Errorf("bad operand %q", s)
	}
	return isa.Imm(v), nil
}

// address parses "[rN]", "[rN+k]" or "[rN-k]" into its base register and
// word offset.
func address(s string) (isa.Operand, int64, error) {
	inner, open := strings.CutPrefix(s, "[")
	inner, closed := strings.CutSuffix(inner, "]")
	if !open || !closed {
		return isa.Operand{}, 0, fmt.Errorf("bad address %q", s)
	}
	var off int64
	if i := strings.IndexAny(inner, "+-"); i >= 0 {
		k := strings.TrimSpace(strings.TrimPrefix(inner[i:], "+"))
		var err error
		if off, err = strconv.ParseInt(k, 10, 64); err != nil {
			return isa.Operand{}, 0, fmt.Errorf("bad offset in %q", s)
		}
		inner = inner[:i]
	}
	r, err := reg(strings.TrimSpace(inner))
	return isa.R(r), off, err
}
