// Package core implements the paper's primary contribution: the RegMutex
// compiler pass (extended-set sizing, acquire/release injection, register
// index compaction — section III-A) and the microarchitectural structures
// that time-share the extended sets (warp status bitmask, SRP bitmask,
// lookup table, and the augmented architected-to-physical register mapping
// — section III-B).
package core

import (
	"fmt"
	"math/bits"
)

// SRP (Shared Register Pool) state for one SM: the highlighted structures
// of Figure 4. All three structures are sized by Nw, the maximum number of
// resident warps, exactly as in the paper, so the storage-overhead claims
// can be checked against the hardware design.
type SRP struct {
	nw       int
	sections int

	// warpStatus and srpMask are Nw-bit bitmasks packed into 64-bit
	// words (bit i of word i/64). free counts the usable sections whose
	// srpMask bit is clear, so a failed acquire costs O(1).
	warpStatus []uint64 // Nw bits: warp has acquired its extended set
	srpMask    []uint64 // Nw bits: SRP section in use
	free       int
	lut        []uint8 // Nw entries × ceil(log2 Nw) bits: warp -> section

	// Counters for the Figure 11/13 experiments.
	AcquireAttempts  uint64
	AcquireSuccesses uint64
	Releases         uint64
}

// NewSRP builds the per-SM RegMutex state for nw resident warp slots and
// the given number of usable SRP sections. Sections beyond the usable
// count are pre-marked busy, as the paper specifies ("those bits in SRP
// bitmask that do not correspond to any SRP section are set at the
// beginning of the kernel placement").
func NewSRP(nw, sections int) *SRP {
	if sections > nw {
		sections = nw
	}
	if sections < 0 {
		sections = 0
	}
	words := (nw + 63) / 64
	s := &SRP{
		nw:         nw,
		sections:   sections,
		warpStatus: make([]uint64, words),
		srpMask:    make([]uint64, words),
		free:       sections,
		lut:        make([]uint8, nw),
	}
	// Bits past Nw in the last word are set too, so ffz never finds them.
	for i := sections; i < words*64; i++ {
		s.srpMask[i/64] |= 1 << uint(i%64)
	}
	return s
}

// busy reports whether section i's SRP-bitmask bit is set.
func (s *SRP) busy(i int) bool { return s.srpMask[i/64]&(1<<uint(i%64)) != 0 }

// setBusy sets or clears usable section i's SRP-bitmask bit, keeping the
// free count in step.
func (s *SRP) setBusy(i int, busy bool) {
	if s.busy(i) == busy {
		return
	}
	s.srpMask[i/64] ^= 1 << uint(i%64)
	if busy {
		s.free--
	} else {
		s.free++
	}
}

// Sections returns the number of usable SRP sections.
func (s *SRP) Sections() int { return s.sections }

// Holding reports whether warp w currently holds an extended set.
func (s *SRP) Holding(w int) bool { return s.warpStatus[w/64]&(1<<uint(w%64)) != 0 }

// Section returns the SRP section warp w holds; only meaningful while
// Holding(w) is true.
func (s *SRP) Section(w int) int { return int(s.lut[w]) }

// ffz returns the index of the first zero bit, or -1 if none — the Find
// First Zero operation of Figure 5(a).
func (s *SRP) ffz() int {
	for i, m := range s.srpMask {
		if m != ^uint64(0) {
			return i*64 + bits.TrailingZeros64(^m)
		}
	}
	return -1
}

// Acquire implements the acquire procedure of Figure 5(a): find a free
// SRP section; on success record it in the LUT and set the warp status
// and section bits. A redundant acquire (already holding) has no effect
// and succeeds, per the paper's nesting rule. Returns false when the warp
// must wait and retry at a later scheduling round.
func (s *SRP) Acquire(w int) bool {
	s.AcquireAttempts++
	if s.Holding(w) {
		s.AcquireSuccesses++ // architectural no-op, does not stall
		return true
	}
	if s.free == 0 {
		return false
	}
	loc := s.ffz()
	s.lut[w] = uint8(loc)
	s.setBusy(loc, true)
	s.warpStatus[w/64] |= 1 << uint(w%64)
	s.AcquireSuccesses++
	return true
}

// Release implements Figure 5(b): clear the warp's status bit and free
// its section. A redundant release (not holding) is a no-op.
func (s *SRP) Release(w int) {
	if !s.Holding(w) {
		return
	}
	s.Releases++
	s.warpStatus[w/64] &^= 1 << uint(w%64)
	s.setBusy(int(s.lut[w]), false)
}

// InUse returns the number of sections currently acquired.
func (s *SRP) InUse() int { return s.sections - s.free }

// CheckConservation validates the core allocator invariant: every busy
// usable section is held by exactly one warp whose LUT entry points at it.
// Tests and the simulator's self-checks call this.
func (s *SRP) CheckConservation() error {
	owners := make(map[int]int)
	for w := 0; w < s.nw; w++ {
		if !s.Holding(w) {
			continue
		}
		sec := int(s.lut[w])
		if sec >= s.sections {
			return fmt.Errorf("core: warp %d holds out-of-range section %d", w, sec)
		}
		if !s.busy(sec) {
			return fmt.Errorf("core: warp %d holds section %d whose SRP bit is clear", w, sec)
		}
		if prev, dup := owners[sec]; dup {
			return fmt.Errorf("core: section %d held by warps %d and %d", sec, prev, w)
		}
		owners[sec] = w
	}
	clear := 0
	for sec := 0; sec < s.sections; sec++ {
		if !s.busy(sec) {
			clear++
		} else if _, held := owners[sec]; !held {
			return fmt.Errorf("core: section %d busy but unowned", sec)
		}
	}
	if clear != s.free {
		return fmt.Errorf("core: free count %d, but %d sections are clear", s.free, clear)
	}
	return nil
}

// FlipSection toggles section i's SRP-bitmask bit without touching the
// warp-status bits or LUT. FAULT INJECTION ONLY (internal/faults): it
// models a soft error in the SRP bitmask, which CheckConservation must
// catch as either a busy-but-unowned or held-but-clear section.
func (s *SRP) FlipSection(i int) {
	if i >= 0 && i < s.sections {
		s.setBusy(i, !s.busy(i))
	}
}

// StorageBits returns the storage the RegMutex structures add to the SM,
// in bits: Nw (warp status) + Nw (SRP bitmask) + Nw·⌈log2 Nw⌉ (LUT). At
// Nw = 48 this is 48 + 48 + 288 = 384 bits, the paper's section III-B1
// figure.
func StorageBits(nw int) int {
	return nw + nw + nw*ceilLog2(nw)
}

// PairedStorageBits returns the storage cost of the paired-warps
// specialisation (section III-C): a single Nw/2-bit bitmask.
func PairedStorageBits(nw int) int { return nw / 2 }

// RFVStorageBits returns the storage the paper attributes to the register
// file virtualization comparator's structures, excluding its Release Flag
// Cache: a renaming table plus a register availability vector. With the
// default 128 KB register file the paper reports 30,240 + 1,024 = 31,264
// bits, "more than 81x" RegMutex's 384.
//
// The renaming-table arithmetic: one entry per warp per architected
// register (Nw × regsPerWarp entries) of ⌈log2 rows⌉ bits each, where
// rows is the physical warp-register row count; plus one availability bit
// per row.
func RFVStorageBits(nw, regsPerWarp, physRows int) int {
	entry := ceilLog2(physRows)
	return nw*regsPerWarp*entry + physRows
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// MapConfig carries the launch-time constants the Operand Collector needs
// for the augmented mapping of Figure 6(b): the split sizes and the SRP's
// base offset within the register file (in warp-register rows).
type MapConfig struct {
	Bs        int
	Es        int
	SRPOffset int
}

// MapBaseline is the unmodified Fermi mapping of Figure 6(a):
// Y = X + Coeff·Widx, with Coeff the kernel's total register usage.
func MapBaseline(coeff, widx, x int) int { return coeff*widx + x }

// Map is the augmented mapping of Figure 6(b). x is the architected
// register index; widx the warp's index within the SM; section the SRP
// section from the LUT (meaningful only when x >= Bs). The returned
// physical index is a warp-register row.
func (m MapConfig) Map(widx, section, x int) int {
	if x < m.Bs {
		return widx*m.Bs + x
	}
	return m.SRPOffset + section*m.Es + (x - m.Bs)
}
