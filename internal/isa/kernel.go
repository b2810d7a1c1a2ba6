package isa

import (
	"errors"
	"fmt"
	"math"
)

// F2B converts a float64 value to its register bit pattern.
func F2B(f float64) uint64 { return math.Float64bits(f) }

// B2F converts a register bit pattern to its float64 value.
func B2F(b uint64) float64 { return math.Float64frombits(b) }

// Kernel is one GPU kernel: its code plus the static launch resources that
// determine theoretical occupancy (registers per thread, CTA shape, shared
// memory) and, after the RegMutex compiler pass, the |Bs| / |Es| split that
// is supplied to the hardware at launch (paper section III-B2).
type Kernel struct {
	Name   string
	Instrs []Instr

	// NumRegs is the number of architected registers per thread the
	// kernel asks for (the unrounded "# Regs." column of Table I).
	NumRegs int
	// NumPRegs is the number of predicate registers used.
	NumPRegs int

	// ThreadsPerCTA is the CTA (thread block) size.
	ThreadsPerCTA int
	// SharedMemWords is the CTA's shared-memory footprint in 8-byte
	// words (the simulator's shared memory is word addressed).
	SharedMemWords int
	// GridCTAs is the default launch grid size.
	GridCTAs int
	// GlobalMemWords is the size of device global memory the kernel's
	// input generator fills, in words.
	GlobalMemWords int

	// BaseSet is |Bs|. When BaseSet == NumRegs (or 0 before the pass),
	// the kernel has a zero-sized extended set and executes exactly as
	// on the baseline.
	BaseSet int
	// ExtSet is |Es|; BaseSet + ExtSet covers every architected
	// register the kernel touches.
	ExtSet int
}

// WarpSize is the SIMD width: threads per warp.
const WarpSize = 32

// WarpsPerCTA returns the number of warps needed for one CTA.
func (k *Kernel) WarpsPerCTA() int {
	return (k.ThreadsPerCTA + WarpSize - 1) / WarpSize
}

// AllocRegs returns the per-thread register count the hardware uses for
// resource allocation: NumRegs rounded up to a multiple of 4, the Fermi
// allocation granule (the parenthesised column of Table I).
func (k *Kernel) AllocRegs() int { return RoundRegs(k.NumRegs) }

// RoundRegs rounds a register count up to the hardware allocation granule.
func RoundRegs(n int) int { return (n + 3) &^ 3 }

// HasExtendedSet reports whether the kernel was compiled with a non-empty
// extended register set. The split covers the rounded allocation count,
// since |Bs| + |Es| equals the total the kernel asks the hardware for
// (section III-A2).
func (k *Kernel) HasExtendedSet() bool {
	return k.ExtSet > 0 && k.BaseSet > 0 && k.BaseSet < k.AllocRegs()
}

// Validate checks structural invariants: operand counts, register bounds,
// branch targets, and RegMutex annotations. The simulator and the
// compiler both refuse kernels that fail validation.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return errors.New("isa: kernel has no name")
	}
	if len(k.Instrs) == 0 {
		return fmt.Errorf("isa: kernel %s has no instructions", k.Name)
	}
	if k.NumRegs <= 0 || k.NumRegs > MaxRegs {
		return fmt.Errorf("isa: kernel %s: NumRegs %d out of range (1..%d)", k.Name, k.NumRegs, MaxRegs)
	}
	if k.NumPRegs < 0 || k.NumPRegs > MaxPRegs {
		return fmt.Errorf("isa: kernel %s: NumPRegs %d out of range", k.Name, k.NumPRegs)
	}
	if k.ThreadsPerCTA <= 0 || k.ThreadsPerCTA%WarpSize != 0 {
		return fmt.Errorf("isa: kernel %s: ThreadsPerCTA %d must be a positive multiple of %d", k.Name, k.ThreadsPerCTA, WarpSize)
	}
	if k.GridCTAs <= 0 {
		return fmt.Errorf("isa: kernel %s: GridCTAs %d must be positive", k.Name, k.GridCTAs)
	}
	if k.SharedMemWords < 0 || k.GlobalMemWords < 0 {
		return fmt.Errorf("isa: kernel %s: memory sizes (shared %d, global %d words) must not be negative",
			k.Name, k.SharedMemWords, k.GlobalMemWords)
	}
	if k.BaseSet != 0 || k.ExtSet != 0 {
		if k.BaseSet <= 0 || k.ExtSet < 0 || k.BaseSet+k.ExtSet < k.NumRegs {
			return fmt.Errorf("isa: kernel %s: invalid register split Bs=%d Es=%d for %d regs",
				k.Name, k.BaseSet, k.ExtSet, k.NumRegs)
		}
	}
	for i := range k.Instrs {
		if err := k.validateInstr(i); err != nil {
			return err
		}
	}
	last := k.Instrs[len(k.Instrs)-1]
	if last.Op != OpExit && !(last.Op == OpBra && last.Guard.Unguarded()) {
		return fmt.Errorf("isa: kernel %s: control can fall off the end (last op %s)", k.Name, last.Op)
	}
	return nil
}

func (k *Kernel) validateInstr(i int) error {
	in := &k.Instrs[i]
	fail := func(format string, args ...any) error {
		return fmt.Errorf("isa: kernel %s, instr %d (%s): %s", k.Name, i, in, fmt.Sprintf(format, args...))
	}
	checkReg := func(r Reg) error {
		if int(r) >= k.NumRegs {
			return fail("register %s out of range (kernel uses %d)", r, k.NumRegs)
		}
		return nil
	}
	if HasDst(in.Op) {
		if in.Dst == NoReg {
			return fail("missing destination register")
		}
		if err := checkReg(in.Dst); err != nil {
			return err
		}
	} else if in.Dst != NoReg {
		return fail("unexpected destination register")
	}
	for s := 0; s < NumSrcs(in.Op); s++ {
		o := in.Srcs[s]
		switch o.Kind {
		case OpndReg:
			if err := checkReg(o.Reg); err != nil {
				return err
			}
		case OpndImm:
			// fine
		default:
			return fail("source %d is missing", s)
		}
	}
	if in.Op == OpSetp || in.Op == OpSetpF {
		if in.PDst == NoPReg || int(in.PDst) >= k.NumPRegs {
			return fail("setp predicate destination %s out of range", in.PDst)
		}
	}
	if !in.Guard.Unguarded() && int(in.Guard.Pred) >= k.NumPRegs {
		return fail("guard predicate %s out of range", in.Guard.Pred)
	}
	if in.Op == OpSelp && in.Guard.Unguarded() {
		return fail("selp requires a guard predicate as selector")
	}
	if in.Op == OpBra {
		if in.Target < 0 || in.Target >= len(k.Instrs) {
			return fail("branch target %d out of range", in.Target)
		}
		if in.Reconv < -1 || in.Reconv > len(k.Instrs) {
			return fail("reconvergence point %d out of range", in.Reconv)
		}
	}
	return nil
}

// MaxTouchedReg returns the highest architected register index any
// instruction touches, or -1 for a (degenerate) kernel touching none.
func (k *Kernel) MaxTouchedReg() int {
	max := -1
	for i := range k.Instrs {
		k.Instrs[i].Touches().ForEach(func(r Reg) {
			if int(r) > max {
				max = int(r)
			}
		})
	}
	return max
}

// Fingerprint returns a 64-bit content hash (FNV-1a) covering everything
// that can influence a simulation of the kernel: the code — including
// branch targets, reconvergence points, guards, and dead-value
// annotations — the register split, and every launch resource. Two
// kernels with equal fingerprints simulate identically under the same
// machine, policy, and input; the experiment harness keys its run-result
// cache on it.
func (k *Kernel) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	for i := 0; i < len(k.Name); i++ {
		h ^= uint64(k.Name[i])
		h *= prime64
	}
	mix(uint64(len(k.Name)))
	for _, v := range []int{
		k.NumRegs, k.NumPRegs, k.ThreadsPerCTA, k.SharedMemWords,
		k.GridCTAs, k.GlobalMemWords, k.BaseSet, k.ExtSet,
	} {
		mix(uint64(int64(v)))
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		mix(uint64(in.Op))
		mix(uint64(in.Guard.Pred))
		if in.Guard.Neg {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(in.Dst))
		mix(uint64(in.PDst))
		for _, s := range in.Srcs {
			mix(uint64(s.Kind))
			mix(uint64(s.Reg))
			mix(uint64(s.Imm))
		}
		mix(uint64(in.Cmp))
		mix(uint64(in.Spec))
		mix(uint64(in.Off))
		mix(uint64(int64(in.Target)))
		mix(uint64(int64(in.Reconv)))
		mix(uint64(len(in.DeadAfter)))
		for _, r := range in.DeadAfter {
			mix(uint64(r))
		}
	}
	return h
}

// Clone returns a deep copy of the kernel; compiler passes transform the
// copy so callers keep the original.
func (k *Kernel) Clone() *Kernel {
	nk := *k
	nk.Instrs = make([]Instr, len(k.Instrs))
	copy(nk.Instrs, k.Instrs)
	for i := range nk.Instrs {
		if d := k.Instrs[i].DeadAfter; d != nil {
			nk.Instrs[i].DeadAfter = append([]Reg(nil), d...)
		}
	}
	return &nk
}
