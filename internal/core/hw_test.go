package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSRPAcquireRelease(t *testing.T) {
	s := NewSRP(48, 2)
	if !s.Acquire(3) {
		t.Fatal("first acquire should succeed")
	}
	if !s.Holding(3) {
		t.Error("warp 3 should hold")
	}
	if !s.Acquire(7) {
		t.Fatal("second acquire should succeed")
	}
	if s.Acquire(9) {
		t.Error("third acquire should fail with 2 sections")
	}
	if s.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", s.InUse())
	}
	s.Release(3)
	if s.Holding(3) {
		t.Error("warp 3 released but still holding")
	}
	if !s.Acquire(9) {
		t.Error("acquire should succeed after release")
	}
	if err := s.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestSRPRedundantOpsAreNoOps(t *testing.T) {
	s := NewSRP(8, 4)
	if !s.Acquire(1) || !s.Acquire(1) {
		t.Fatal("redundant acquire must succeed as a no-op")
	}
	if s.InUse() != 1 {
		t.Errorf("redundant acquire consumed a section: InUse = %d", s.InUse())
	}
	s.Release(1)
	s.Release(1) // no-op
	s.Release(2) // never held: no-op
	if s.InUse() != 0 {
		t.Errorf("InUse = %d after releases", s.InUse())
	}
	if s.Releases != 1 {
		t.Errorf("Releases counter = %d, want 1 (no-ops don't count)", s.Releases)
	}
}

func TestSRPCounters(t *testing.T) {
	s := NewSRP(8, 1)
	s.Acquire(0) // success
	s.Acquire(1) // fail
	s.Acquire(1) // fail
	s.Release(0)
	s.Acquire(1) // success
	if s.AcquireAttempts != 4 || s.AcquireSuccesses != 2 {
		t.Errorf("attempts/successes = %d/%d, want 4/2", s.AcquireAttempts, s.AcquireSuccesses)
	}
}

func TestSRPUnusableSectionsPreMarked(t *testing.T) {
	s := NewSRP(8, 3)
	got := 0
	for w := 0; w < 8; w++ {
		if s.Acquire(w) {
			got++
		}
	}
	if got != 3 {
		t.Errorf("acquired %d sections, want 3 (rest pre-marked busy)", got)
	}
}

// The paper's storage accounting (section III-B1): 384 bits at Nw=48,
// more than 81x below RFV's renaming structures.
func TestStorageBitsMatchPaper(t *testing.T) {
	if got := StorageBits(48); got != 384 {
		t.Errorf("StorageBits(48) = %d, want 384", got)
	}
	// RFV: the paper reports 30,240 bits of renaming table + 1,024 bits
	// of availability for the 128 KB register file.
	rfv := RFVStorageBits(48, 63, 1024)
	if rfv < 30000 {
		t.Errorf("RFV storage = %d bits, expected > 30k", rfv)
	}
	if ratio := float64(rfv) / float64(StorageBits(48)); ratio < 81 {
		t.Errorf("storage ratio = %.1fx, paper claims more than 81x", ratio)
	}
	if got := PairedStorageBits(48); got != 24 {
		t.Errorf("PairedStorageBits(48) = %d, want Nw/2 = 24", got)
	}
	// Paired vs default: >20x cheaper (section IV-E).
	if ratio := float64(StorageBits(48)) / float64(PairedStorageBits(48)); ratio < 16 {
		t.Errorf("paired saving ratio = %.1fx", ratio)
	}
}

func TestMapBaselineAndAugmented(t *testing.T) {
	// Baseline Figure 6(a): Y = Coeff*Widx + X.
	if got := MapBaseline(24, 3, 5); got != 77 {
		t.Errorf("MapBaseline = %d, want 77", got)
	}
	// Augmented Figure 6(b).
	m := MapConfig{Bs: 18, Es: 6, SRPOffset: 864}
	if got := m.Map(2, 0, 5); got != 41 { // base register: 2*18+5
		t.Errorf("base map = %d, want 41", got)
	}
	if got := m.Map(2, 4, 20); got != 864+4*6+2 { // extended register
		t.Errorf("ext map = %d, want %d", got, 864+4*6+2)
	}
}

// Property: base and extended mappings never collide across warps and
// sections, given disjoint address ranges.
func TestMapDisjointProperty(t *testing.T) {
	f := func(bsRaw, esRaw uint8) bool {
		bs := 1 + int(bsRaw)%30
		es := 1 + int(esRaw)%12
		warps := 8
		m := MapConfig{Bs: bs, Es: es, SRPOffset: warps * bs}
		seen := map[int]bool{}
		for w := 0; w < warps; w++ {
			for x := 0; x < bs; x++ {
				y := m.Map(w, 0, x)
				if seen[y] {
					return false
				}
				seen[y] = true
			}
		}
		for sec := 0; sec < 4; sec++ {
			for x := bs; x < bs+es; x++ {
				y := m.Map(0, sec, x)
				if seen[y] {
					return false
				}
				seen[y] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: random acquire/release sequences preserve the allocator
// conservation invariant and never exceed the section count.
func TestSRPConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := 1 + rng.Intn(48)
		sections := rng.Intn(nw + 1)
		s := NewSRP(nw, sections)
		held := 0
		for step := 0; step < 200; step++ {
			w := rng.Intn(nw)
			if rng.Intn(2) == 0 {
				was := s.Holding(w)
				if s.Acquire(w) && !was {
					held++
				}
			} else {
				if s.Holding(w) {
					held--
				}
				s.Release(w)
			}
			if s.InUse() != held || held > sections {
				return false
			}
			if err := s.CheckConservation(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The bitmasks span several 64-bit words past Nw = 64: sections are
// handed out lowest-first across the word boundary, a full pool refuses
// every further acquire, and a freed section in the second word is the
// next one found.
func TestSRPWordWide(t *testing.T) {
	s := NewSRP(100, 70)
	for w := 0; w < 70; w++ {
		if !s.Acquire(w) || s.Section(w) != w {
			t.Fatalf("warp %d: holding %v section %d, want section %d", w, s.Holding(w), s.Section(w), w)
		}
	}
	for w := 70; w < 100; w++ {
		if s.Acquire(w) {
			t.Fatalf("warp %d acquired from a full pool", w)
		}
	}
	s.Release(66)
	if !s.Acquire(99) || s.Section(99) != 66 {
		t.Errorf("warp 99: section %d, want the freed 66", s.Section(99))
	}
	if s.InUse() != 70 || s.AcquireAttempts != 101 || s.AcquireSuccesses != 71 {
		t.Errorf("InUse %d attempts %d successes %d, want 70/101/71", s.InUse(), s.AcquireAttempts, s.AcquireSuccesses)
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// A soft error flipped into the SRP bitmask keeps the free count in step
// with the mask, so the flipped section is handed out again and the
// conservation check reports the double ownership.
func TestSRPFlipSectionCaught(t *testing.T) {
	s := NewSRP(48, 2)
	s.Acquire(3)
	s.FlipSection(s.Section(3))
	if s.InUse() != 0 {
		t.Errorf("InUse = %d after clearing the only busy bit, want 0", s.InUse())
	}
	if err := s.CheckConservation(); err == nil {
		t.Error("held-but-clear section not caught")
	}
	if !s.Acquire(5) || s.Section(5) != s.Section(3) {
		t.Fatalf("warp 5: section %d, want the flipped %d", s.Section(5), s.Section(3))
	}
	if err := s.CheckConservation(); err == nil {
		t.Error("doubly owned section not caught")
	}
}
