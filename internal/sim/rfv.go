package sim

import (
	"fmt"
	"sort"

	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
)

// RFVPolicy models Register File Virtualization (Jeon et al. [3]): a
// per-warp renaming table maps architected registers to physical rows on
// demand. A row is allocated at a register's first write and freed at its
// (compiler-annotated) last use, so registers stop constraining residency;
// when the physical file is exhausted, the writing warp stalls until rows
// free up.
//
// Deadlock avoidance (our addition, standing in for the paper's throttling
// machinery): the CTA containing the oldest incomplete warp on the SM is
// "privileged" — rows are reserved so its warps' allocations always
// succeed, guaranteeing forward progress one CTA at a time in the worst
// case (CTA granularity, not warp granularity, because barriers couple a
// CTA's warps).
type RFVPolicy struct {
	cfg occupancy.Config
}

// NewRFVPolicy returns the RFV comparator.
func NewRFVPolicy(cfg occupancy.Config) *RFVPolicy { return &RFVPolicy{cfg: cfg} }

// Name implements Policy.
func (p *RFVPolicy) Name() string { return "rfv" }

// CTAsPerSM implements Policy: residency is bounded by the *average*
// dynamic register demand instead of the static maximum — renaming frees
// dead registers, so the file only has to cover what is simultaneously
// live on average (plus slack for the peaks); launching far beyond that
// would just convert every write into an allocation stall.
func (p *RFVPolicy) CTAsPerSM(k *isa.Kernel) int {
	free := occupancy.Unconstrained(p.cfg, k).CTAsPerSM
	base := occupancy.Baseline(p.cfg, k).CTAsPerSM
	demand := p.avgLiveDemand(k)
	// Nearest rounding: renaming absorbs brief over-subscription, so a
	// CTA that fits "most of the time" is worth launching.
	byRows := (2*p.cfg.WarpRegisters() + k.WarpsPerCTA()*demand) / (2 * k.WarpsPerCTA() * demand)
	return max(min(byRows, free), base)
}

// avgLiveDemand estimates the per-thread register rows a warp occupies on
// average under renaming. Hot-loop instructions dominate dynamic
// behaviour, so the estimate uses an upper quartile of the static live
// counts plus burst slack rather than the plain mean (which the ramp-up
// and ramp-down code would bias low).
func (p *RFVPolicy) avgLiveDemand(k *isa.Kernel) int {
	inf, err := liveness.Compute(k)
	if err != nil {
		return k.AllocRegs()
	}
	counts := make([]int, len(k.Instrs))
	for i := range k.Instrs {
		counts[i] = inf.CountAt(i)
	}
	sort.Ints(counts)
	d := counts[len(counts)*3/4] + 2 // upper quartile + burst slack
	return min(max(d, 4), k.AllocRegs())
}

// NewSMState implements Policy.
func (p *RFVPolicy) NewSMState(sm *SM) PolicyState {
	return &rfvState{
		sm:        sm,
		freeRows:  p.cfg.WarpRegisters(),
		totalRows: p.cfg.WarpRegisters(),
		backed:    make(map[*Warp]isa.RegSet),
	}
}

type rfvState struct {
	nopState
	sm        *SM
	freeRows  int
	totalRows int
	backed    map[*Warp]isa.RegSet

	allocStalls uint64
	allocs      uint64
	frees       uint64
}

// AuditCycle validates the renaming row conservation law: free rows plus
// rows backing architected registers must equal the physical file, and
// the free count can never go negative.
func (s *rfvState) AuditCycle() error {
	used := 0
	for _, rs := range s.backed {
		used += rs.Count()
	}
	if s.freeRows < 0 {
		return fmt.Errorf("RFV free row count %d is negative", s.freeRows)
	}
	if s.freeRows+used != s.totalRows {
		return fmt.Errorf("RFV row accounting broken: %d free + %d backed != %d total",
			s.freeRows, used, s.totalRows)
	}
	return nil
}

// AuditEnd additionally requires every row returned once all warps exit.
func (s *rfvState) AuditEnd() error {
	if err := s.AuditCycle(); err != nil {
		return err
	}
	if len(s.backed) > 0 {
		return fmt.Errorf("RFV leaked backing rows for %d warps at kernel end", len(s.backed))
	}
	return nil
}

// CorruptFreeRows shifts the free-row count without touching any backing
// state. FAULT INJECTION ONLY (internal/faults): it models a soft error in
// the register availability vector, which AuditCycle must catch as broken
// row accounting.
func (s *rfvState) CorruptFreeRows(delta int) { s.freeRows += delta }

// privileged returns the CTA containing the oldest incomplete warp.
func (s *rfvState) privileged() *CTAState {
	var oldest *Warp
	for _, w := range s.sm.warps {
		if w.Finished() {
			continue
		}
		if oldest == nil || w.Seq < oldest.Seq {
			oldest = w
		}
	}
	if oldest == nil {
		return nil
	}
	return oldest.CTA
}

// reserveFor returns the rows held back for the privileged CTA.
func (s *rfvState) reserveFor(priv *CTAState) int {
	if priv == nil {
		return 0
	}
	alloc := s.sm.dev.Kernel.AllocRegs()
	need := 0
	for _, w := range priv.warps {
		if w.Finished() {
			continue
		}
		if n := alloc - s.backed[w].Count(); n > 0 {
			need += n
		}
	}
	return need
}

func (s *rfvState) TryIssue(w *Warp, in *isa.Instr, now int64) bool {
	// Rows are needed for unbacked registers the instruction touches.
	// Reads of never-written registers also get a row (they hold
	// whatever garbage the row contains, as on real hardware).
	need := in.Touches().Diff(s.backed[w]).Count()
	if need == 0 {
		return true
	}
	avail := s.freeRows
	if priv := s.privileged(); priv != nil && priv != w.CTA {
		avail -= s.reserveFor(priv)
	}
	if need > avail {
		s.allocStalls++
		return false
	}
	s.freeRows -= need
	s.backed[w] = s.backed[w].Union(in.Touches())
	s.allocs += uint64(need)
	return true
}

// OnIssued frees rows whose registers die at this instruction, using the
// compiler's dead-value annotations.
func (s *rfvState) OnIssued(w *Warp, in *isa.Instr, now int64) {
	if len(in.DeadAfter) == 0 {
		return
	}
	b := s.backed[w]
	for _, r := range in.DeadAfter {
		if b.Has(r) {
			b = b.Remove(r)
			s.freeRows++
			s.frees++
		}
	}
	s.backed[w] = b
}

// OnWarpExit returns all of the warp's remaining rows.
func (s *rfvState) OnWarpExit(w *Warp) {
	s.freeRows += s.backed[w].Count()
	delete(s.backed, w)
}

func (s *rfvState) Counters() (uint64, uint64, uint64) {
	// Map allocation traffic onto the acquire counters so the generic
	// stats report something meaningful for RFV too.
	return s.allocs + s.allocStalls, s.allocs, s.frees
}
