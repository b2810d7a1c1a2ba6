package sim

import (
	"fmt"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// RegMutexPolicy implements the paper's mechanism: the base set is
// statically allocated (residency computed with |Bs|), and extended sets
// are time-shared out of the Shared Register Pool via the warp-status /
// SRP bitmasks and lookup table of section III-B1.
type RegMutexPolicy struct {
	cfg occupancy.Config

	// Blocking switches failed acquires from the paper's retry-at-issue
	// scheme to a FIFO hand-off: releases reserve the freed section for
	// the longest-waiting warp (ablation: BenchmarkAblationRetry).
	Blocking bool
}

// NewRegMutexPolicy returns the RegMutex policy; the kernel must have been
// transformed by core.Transform (or carry BaseSet == AllocRegs for the
// disabled case, which then behaves exactly like the baseline).
func NewRegMutexPolicy(cfg occupancy.Config) *RegMutexPolicy {
	return &RegMutexPolicy{cfg: cfg}
}

// Name implements Policy.
func (p *RegMutexPolicy) Name() string { return "regmutex" }

// CTAsPerSM implements Policy: residency is computed charging only |Bs|
// per thread.
func (p *RegMutexPolicy) CTAsPerSM(k *isa.Kernel) int {
	if !k.HasExtendedSet() {
		return occupancy.Baseline(p.cfg, k).CTAsPerSM
	}
	return occupancy.WithBaseSet(p.cfg, k, k.BaseSet).CTAsPerSM
}

// NewSMState implements Policy.
func (p *RegMutexPolicy) NewSMState(sm *SM) PolicyState {
	k := sm.dev.Kernel
	if !k.HasExtendedSet() {
		return nopState{}
	}
	warps := p.CTAsPerSM(k) * k.WarpsPerCTA()
	sections, _ := occupancy.SRPSections(p.cfg, warps, k.BaseSet, k.ExtSet)
	return &regmutexState{
		sm:       sm,
		srp:      core.NewSRP(p.cfg.MaxWarpsPerSM, sections),
		blocking: p.Blocking,
	}
}

type regmutexState struct {
	nopState
	sm  *SM
	srp *core.SRP

	blocking bool
	waitQ    []int // Widx FIFO for the blocking hand-off variant
}

func (s *regmutexState) TryIssue(w *Warp, in *isa.Instr, now int64) bool {
	switch in.Op {
	case isa.OpAcq:
		if s.blocking && len(s.waitQ) > 0 && s.waitQ[0] != w.Widx {
			// Someone older is queued for the next free section.
			s.enqueue(w.Widx)
			s.srp.AcquireAttempts++
			s.emitFail(now, w.Widx)
			return false
		}
		ok := s.srp.Acquire(w.Widx)
		if ok {
			s.dequeue(w.Widx)
			s.emit(Event{Cycle: now, Kind: "acquire", Warp: w.Widx, Data: s.srp.Section(w.Widx)})
		} else {
			if s.blocking {
				s.enqueue(w.Widx)
			}
			s.emitFail(now, w.Widx)
		}
		return ok
	case isa.OpRel:
		if s.srp.Holding(w.Widx) {
			s.emit(Event{Cycle: now, Kind: "release", Warp: w.Widx, Data: s.srp.Section(w.Widx)})
		}
		s.srp.Release(w.Widx)
		return true
	default:
		return true
	}
}

// emit forwards an event to the device listener (absent in unit tests).
func (s *regmutexState) emit(ev Event) {
	if s.sm != nil {
		ev.SM = s.sm.id
		s.sm.dev.emit(ev)
	}
}

// emitFail reports a failed acquire attempt. It fires every retry cycle,
// so the Event is only built while something is observing.
func (s *regmutexState) emitFail(now int64, widx int) {
	if s.sm != nil && s.sm.dev.observing() {
		s.emit(Event{Cycle: now, Kind: "acquire-fail", Warp: widx, Data: -1})
	}
}

func (s *regmutexState) enqueue(widx int) {
	for _, x := range s.waitQ {
		if x == widx {
			return
		}
	}
	s.waitQ = append(s.waitQ, widx)
}

func (s *regmutexState) dequeue(widx int) {
	for i, x := range s.waitQ {
		if x == widx {
			s.waitQ = append(s.waitQ[:i], s.waitQ[i+1:]...)
			return
		}
	}
}

func (s *regmutexState) OnWarpExit(w *Warp) {
	// The compiler guarantees a REL before every exit; release
	// defensively so a straggler cannot leak a section.
	s.srp.Release(w.Widx)
	s.dequeue(w.Widx)
}

func (s *regmutexState) Counters() (uint64, uint64, uint64) {
	return s.srp.AcquireAttempts, s.srp.AcquireSuccesses, s.srp.Releases
}

// HeldSections reports currently-acquired SRP sections (for sampling).
func (s *regmutexState) HeldSections() int { return s.srp.InUse() }

// SRPSectionCount reports the SM's usable SRP section total (for wedge
// diagnostics).
func (s *regmutexState) SRPSectionCount() int { return s.srp.Sections() }

// SRP exposes the raw allocator state. FAULT INJECTION AND AUDIT ONLY:
// internal/faults corrupts it to prove the auditor notices.
func (s *regmutexState) SRP() *core.SRP { return s.srp }

// AuditCycle validates the SRP conservation law (free + held == total,
// every busy section owned by exactly one warp) each audit epoch.
func (s *regmutexState) AuditCycle() error { return s.srp.CheckConservation() }

// AuditEnd additionally requires zero leaked sections once the kernel has
// retired every CTA.
func (s *regmutexState) AuditEnd() error {
	if err := s.srp.CheckConservation(); err != nil {
		return err
	}
	if n := s.srp.InUse(); n > 0 {
		return fmt.Errorf("%d of %d SRP sections leaked at kernel end", n, s.srp.Sections())
	}
	return nil
}

// ---------------------------------------------------------------------
// Paired-warps specialisation (section III-C): SRP sections are privatised
// to pairs of warps; each pair statically owns 2·|Bs| + |Es| registers and
// a 1-bit mutex decides which of the two currently holds Es.
// ---------------------------------------------------------------------

// PairedPolicy is the paired-warps specialisation of RegMutex.
type PairedPolicy struct {
	cfg occupancy.Config
}

// NewPairedPolicy returns the paired-warps policy; the kernel must be
// RegMutex-transformed.
func NewPairedPolicy(cfg occupancy.Config) *PairedPolicy { return &PairedPolicy{cfg: cfg} }

// Name implements Policy.
func (p *PairedPolicy) Name() string { return "paired" }

// CTAsPerSM implements Policy.
func (p *PairedPolicy) CTAsPerSM(k *isa.Kernel) int {
	if !k.HasExtendedSet() {
		return occupancy.Baseline(p.cfg, k).CTAsPerSM
	}
	return occupancy.PairedPairs(p.cfg, k, k.BaseSet, k.ExtSet).CTAsPerSM
}

// NewSMState implements Policy.
func (p *PairedPolicy) NewSMState(sm *SM) PolicyState {
	k := sm.dev.Kernel
	if !k.HasExtendedSet() {
		return nopState{}
	}
	return &pairedState{holder: make([]int, p.cfg.MaxWarpsPerSM/2+1)}
}

type pairedState struct {
	nopState
	holder    []int // per pair: holding Widx + 1, or 0 for free
	attempts  uint64
	successes uint64
	releases  uint64
}

func (s *pairedState) TryIssue(w *Warp, in *isa.Instr, now int64) bool {
	pair := w.Widx / 2
	switch in.Op {
	case isa.OpAcq:
		s.attempts++
		switch s.holder[pair] {
		case 0:
			s.holder[pair] = w.Widx + 1
			s.successes++
			return true
		case w.Widx + 1:
			s.successes++ // redundant acquire: no-op
			return true
		default:
			return false // the pair partner holds Es
		}
	case isa.OpRel:
		if s.holder[pair] == w.Widx+1 {
			s.holder[pair] = 0
			s.releases++
		}
		return true
	default:
		return true
	}
}

func (s *pairedState) OnWarpExit(w *Warp) {
	pair := w.Widx / 2
	if s.holder[pair] == w.Widx+1 {
		s.holder[pair] = 0
		s.releases++
	}
}

func (s *pairedState) Counters() (uint64, uint64, uint64) {
	return s.attempts, s.successes, s.releases
}

// AuditCycle validates the pair-mutex state: a held bit must name one of
// the pair's two warps.
func (s *pairedState) AuditCycle() error {
	for pair, h := range s.holder {
		if h != 0 && (h-1)/2 != pair {
			return fmt.Errorf("pair %d mutex held by warp %d outside the pair", pair, h-1)
		}
	}
	return nil
}
