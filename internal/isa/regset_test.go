package isa

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	if !s.Empty() {
		t.Fatal("zero RegSet should be empty")
	}
	s = s.Add(3).Add(17).Add(0)
	if got := s.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	for _, r := range []Reg{0, 3, 17} {
		if !s.Has(r) {
			t.Errorf("missing %s", r)
		}
	}
	if s.Has(4) {
		t.Error("unexpected r4")
	}
	s = s.Remove(3)
	if s.Has(3) || s.Count() != 2 {
		t.Errorf("after Remove: %s", s)
	}
	if s.Min() != 0 || s.Max() != 17 {
		t.Errorf("Min/Max = %s/%s, want r0/r17", s.Min(), s.Max())
	}
}

func TestRegSetEmptyMinMax(t *testing.T) {
	var s RegSet
	if s.Min() != NoReg || s.Max() != NoReg {
		t.Errorf("empty set Min/Max should be NoReg")
	}
}

func TestRegSetSplit(t *testing.T) {
	s := NewRegSet(1, 5, 19, 20, 31)
	lo, hi := s.Below(20), s.AtOrAbove(20)
	if lo != NewRegSet(1, 5, 19) {
		t.Errorf("Below(20) = %s", lo)
	}
	if hi != NewRegSet(20, 31) {
		t.Errorf("AtOrAbove(20) = %s", hi)
	}
	if lo.Union(hi) != s {
		t.Error("split does not partition")
	}
	if s.AtOrAbove(64) != 0 || s.Below(64) != s {
		t.Error("bound 64 edge case")
	}
}

func TestRegSetString(t *testing.T) {
	if got := NewRegSet(2, 7).String(); got != "{r2, r7}" {
		t.Errorf("String = %q", got)
	}
	if got := RegSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Property: Below(b) and AtOrAbove(b) partition any set for any bound.
func TestRegSetPartitionProperty(t *testing.T) {
	f := func(raw uint64, bound uint8) bool {
		s := RegSet(raw)
		b := int(bound % 65)
		lo, hi := s.Below(b), s.AtOrAbove(b)
		if lo&hi != 0 {
			return false
		}
		if lo|hi != s {
			return false
		}
		if !hi.Empty() && int(hi.Min()) < b {
			return false
		}
		if !lo.Empty() && int(lo.Max()) >= b {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Count matches popcount; union/diff algebra holds.
func TestRegSetAlgebraProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		sa, sb := RegSet(a), RegSet(b)
		if sa.Count() != bits.OnesCount64(a) {
			return false
		}
		u := sa.Union(sb)
		if u.Diff(sb).Union(sa.Intersect(sb)) != sa {
			return false
		}
		return u.Count() == sa.Count()+sb.Count()-sa.Intersect(sb).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ForEach visits each member exactly once, ascending.
func TestRegSetForEachProperty(t *testing.T) {
	f := func(raw uint64) bool {
		s := RegSet(raw)
		prev := -1
		n := 0
		ok := true
		s.ForEach(func(r Reg) {
			if int(r) <= prev || !s.Has(r) {
				ok = false
			}
			prev = int(r)
			n++
		})
		return ok && n == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegSetRanges(t *testing.T) {
	// Ranges renders the live sets of the Figure 3 listing.
	for _, c := range []struct {
		set  RegSet
		want string
	}{
		{0, "-"},
		{NewRegSet(7), "r7"},
		{NewRegSet(2, 3, 4, 7), "r2-r4, r7"},
		{NewRegSet(0, 2, 5, 6, 63), "r0, r2, r5-r6, r63"},
	} {
		if got := c.set.Ranges(); got != c.want {
			t.Errorf("%s.Ranges() = %q, want %q", c.set, got, c.want)
		}
	}
}
