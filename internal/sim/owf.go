package sim

import (
	"fmt"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// OWFPolicy models the resource-sharing scheme of Jatala et al. [7] with
// its Owner Warp First scheduling optimisation, as characterised in the
// paper's sections II and IV-C: warps are paired; architected registers
// with index >= Threshold are shared within the pair; the first warp to
// touch a shared register acquires a hardware lock and keeps it until the
// warp finishes (one-time acquire, no in-kernel release); owner warps are
// scheduled first.
type OWFPolicy struct {
	cfg occupancy.Config
	// Threshold is the shared-register boundary. The harness uses the
	// same |Bs| the RegMutex heuristic picks, making the comparison
	// apples-to-apples on the register split.
	Threshold int
}

// NewOWFPolicy returns the OWF comparator with the given sharing
// threshold.
func NewOWFPolicy(cfg occupancy.Config, threshold int) *OWFPolicy {
	return &OWFPolicy{cfg: cfg, Threshold: threshold}
}

// Name implements Policy.
func (p *OWFPolicy) Name() string { return "owf" }

// sharingPays reports whether pairing is worth taking: because the lock
// is one-time-acquire with no in-kernel release, once every pair's lock
// is taken only one warp per pair can progress, so the scheme's compiler
// shares registers only when even that worst-case concurrency (half the
// paired warps) beats the baseline residency. For kernels whose register
// peak recurs every loop iteration — this entire workload set — it never
// does, and OWF degenerates to the baseline allocation plus owner-first
// scheduling, which is consistent with the ~2% average benefit the paper
// measures for it.
func (p *OWFPolicy) sharingPays(k *isa.Kernel) bool {
	regs := k.AllocRegs()
	t := p.Threshold
	if t <= 0 || t >= regs {
		return false
	}
	paired := occupancy.PairedPairs(p.cfg, k, t, regs-t)
	base := occupancy.Baseline(p.cfg, k)
	return paired.WarpsPerSM/2 > base.WarpsPerSM
}

// CTAsPerSM implements Policy: each pair owns 2·T + (R − T) registers
// when sharing pays; otherwise the baseline allocation is kept.
func (p *OWFPolicy) CTAsPerSM(k *isa.Kernel) int {
	if !p.sharingPays(k) {
		return occupancy.Baseline(p.cfg, k).CTAsPerSM
	}
	regs := k.AllocRegs()
	return occupancy.PairedPairs(p.cfg, k, p.Threshold, regs-p.Threshold).CTAsPerSM
}

// NewSMState implements Policy.
func (p *OWFPolicy) NewSMState(sm *SM) PolicyState {
	if !p.sharingPays(sm.dev.Kernel) {
		return nopState{}
	}
	return &owfState{
		sm:        sm,
		threshold: p.Threshold,
		owner:     make([]int, p.cfg.MaxWarpsPerSM/2+1),
	}
}

type owfState struct {
	nopState
	sm        *SM // nil in unit tests
	threshold int
	owner     []int // per pair: owner Widx + 1, or 0 while unowned
	attempts  uint64
	successes uint64
}

func (s *owfState) TryIssue(w *Warp, in *isa.Instr, now int64) bool {
	if in.Op == isa.OpBarSync {
		// Deadlock avoidance: an owner arriving at a CTA barrier must
		// drop the pair lock, or its locked-out partner could never
		// reach the same barrier.
		if pair := w.Widx / 2; s.owner[pair] == w.Widx+1 {
			s.setOwner(pair, 0)
		}
		return true
	}
	if in.Touches().AtOrAbove(s.threshold).Empty() {
		return true
	}
	pair := w.Widx / 2
	switch s.owner[pair] {
	case w.Widx + 1:
		return true // already the owner
	case 0:
		s.attempts++
		s.successes++
		s.setOwner(pair, w.Widx+1) // one-time acquire
		return true
	default:
		s.attempts++
		return false // partner owns the shared registers until it exits
	}
}

// OnWarpExit releases the pair's shared registers — the only release
// point in this scheme.
func (s *owfState) OnWarpExit(w *Warp) {
	if pair := w.Widx / 2; s.owner[pair] == w.Widx+1 {
		s.setOwner(pair, 0)
	}
}

// setOwner records a pair's owner (Widx + 1, or 0 for none). Ownership is
// the warp's scheduling Priority, so the SM's pick order is invalidated.
func (s *owfState) setOwner(pair, owner int) {
	s.owner[pair] = owner
	if s.sm != nil {
		s.sm.orderGen++
	}
}

// Priority implements Owner Warp First: owners run before non-owners.
func (s *owfState) Priority(w *Warp) int {
	if s.owner[w.Widx/2] == w.Widx+1 {
		return -1
	}
	return 0
}

func (s *owfState) Counters() (uint64, uint64, uint64) {
	return s.attempts, s.successes, 0
}

// AuditCycle validates the pair-lock state: a taken lock must name one of
// the pair's two warp slots.
func (s *owfState) AuditCycle() error {
	for pair, o := range s.owner {
		if o != 0 && (o-1)/2 != pair {
			return fmt.Errorf("OWF pair %d owned by warp %d outside the pair", pair, o-1)
		}
	}
	return nil
}
