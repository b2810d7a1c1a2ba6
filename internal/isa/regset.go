package isa

import (
	"math"
	"math/bits"
	"strings"
)

// RegSet is a set of architected register indices, one bit per register.
// The paper's compiler analyses (liveness vectors of Figure 3, the base /
// extended split of section III-A) are all computed on these sets.
type RegSet uint64

// NewRegSet builds a set from the given registers.
func NewRegSet(regs ...Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s = s.Add(r)
	}
	return s
}

// Add returns s with r included.
func (s RegSet) Add(r Reg) RegSet { return s | 1<<uint(r) }

// Remove returns s with r excluded.
func (s RegSet) Remove(r Reg) RegSet { return s &^ (1 << uint(r)) }

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool { return s&(1<<uint(r)) != 0 }

// Count returns the number of registers in the set — the "number of live
// registers" the paper compares against |Bs|.
func (s RegSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// Diff returns s \ t.
func (s RegSet) Diff(t RegSet) RegSet { return s &^ t }

// Intersect returns s ∩ t.
func (s RegSet) Intersect(t RegSet) RegSet { return s & t }

// Empty reports whether the set has no members.
func (s RegSet) Empty() bool { return s == 0 }

// Max returns the highest register index in the set, or NoReg if empty.
func (s RegSet) Max() Reg {
	if s == 0 {
		return NoReg
	}
	return Reg(63 - bits.LeadingZeros64(uint64(s)))
}

// Min returns the lowest register index in the set, or NoReg if empty.
func (s RegSet) Min() Reg {
	if s == 0 {
		return NoReg
	}
	return Reg(bits.TrailingZeros64(uint64(s)))
}

// AtOrAbove returns the members with index >= bound: the registers that
// live in the extended set when |Bs| = bound.
func (s RegSet) AtOrAbove(bound int) RegSet {
	if bound >= 64 {
		return 0
	}
	return s & (math.MaxUint64 << uint(bound))
}

// Below returns the members with index < bound (the base-set residents).
func (s RegSet) Below(bound int) RegSet {
	if bound >= 64 {
		return s
	}
	return s &^ (math.MaxUint64 << uint(bound))
}

// ForEach calls fn for every register in the set, in ascending order.
func (s RegSet) ForEach(fn func(Reg)) {
	for s != 0 {
		r := Reg(bits.TrailingZeros64(uint64(s)))
		fn(r)
		s = s.Remove(r)
	}
}

// Regs returns the members in ascending order.
func (s RegSet) Regs() []Reg {
	out := make([]Reg, 0, s.Count())
	s.ForEach(func(r Reg) { out = append(out, r) })
	return out
}

// String renders the set like "{r1, r4, r9}".
func (s RegSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(r Reg) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(r.String())
	})
	b.WriteByte('}')
	return b.String()
}

// Ranges renders the set as runs of consecutive registers, like
// "r2-r4, r7"; the empty set is "-".
func (s RegSet) Ranges() string {
	regs := s.Regs()
	if len(regs) == 0 {
		return "-"
	}
	var parts []string
	for i := 0; i < len(regs); {
		j := i
		for j+1 < len(regs) && regs[j+1] == regs[j]+1 {
			j++
		}
		if i == j {
			parts = append(parts, regs[i].String())
		} else {
			parts = append(parts, regs[i].String()+"-"+regs[j].String())
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}
