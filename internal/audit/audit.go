// Package audit is the simulator's pluggable invariant checker: an
// implementation of sim.AuditHook that re-derives machine invariants from
// the read-only device view (sim/view.go) every audit epoch and turns any
// violation into a structured, errors.Is-able diagnostic.
//
// The checks are deliberately redundant with the simulator's own
// bookkeeping — that is the point. A bug that corrupts, say, the SRP
// bitmask will usually not crash the run; it silently wedges it (a hang at
// MaxCycles) or skews results. The auditor converts such bugs into an
// immediate abort naming the SM, warp, and rule that broke. internal/faults
// injects exactly these corruptions to prove the net has no holes.
//
// Attach an auditor through the device constructor, as
// sim.WithAudit(audit.Standard(every)). Checks run per audit epoch (every
// Every cycles; Standard(0) checks every simulated step):
//
//   - policy self-audit: SRP section conservation and leak-at-end for
//     RegMutex (free + held == total, unique owners), RFV physical-row
//     accounting, pair-lock sanity for the paired and OWF schemes —
//     delegated to the optional AuditCycle/AuditEnd methods on the
//     per-SM policy state;
//   - barrier accounting: a CTA's barrier-arrival count equals its warps
//     parked at the barrier and never exceeds its live warp count;
//   - SIMT stack depth: bounded by the kernel's instruction count + 2
//     (a divergent branch pushes two frames and every frame advances
//     monotonically, so deeper stacks mean a reconvergence bug);
//   - scoreboard horizon: no pending writeback may land later than
//     now + the slowest opcode latency (a later one is a lost or
//     corrupted memory response);
//   - warp-slot accounting: occupied slot count equals resident warps,
//     each warp sits in a distinct, in-range, taken slot;
//   - stall-attribution conservation: each SM's per-cause scheduler-slot
//     breakdown (sim.StallBreakdown) sums to cycles × schedulers exactly,
//     so the observability layer's numbers are complete by construction.
package audit

import (
	"fmt"

	"regmutex/internal/sim"
)

// Violation is one broken invariant. It unwraps to sim.ErrInvariant so
// callers classify audit aborts with errors.Is without string matching.
type Violation struct {
	Rule   string // short rule name, e.g. "srp-conservation"
	SM     int    // SM index, -1 when device-wide
	Warp   int    // Widx, -1 when not warp-specific
	PC     int    // warp program counter, -1 when not applicable
	Cycle  int64  // simulation cycle of the check
	Detail string // human-readable specifics
}

// Error implements error.
func (v *Violation) Error() string {
	loc := "device"
	if v.SM >= 0 {
		loc = fmt.Sprintf("SM%d", v.SM)
		if v.Warp >= 0 {
			loc += fmt.Sprintf(" warp %d", v.Warp)
			if v.PC >= 0 {
				loc += fmt.Sprintf(" pc %d", v.PC)
			}
		}
	}
	return fmt.Sprintf("audit: %s violated on %s at cycle %d: %s", v.Rule, loc, v.Cycle, v.Detail)
}

// Unwrap classifies every violation as sim.ErrInvariant.
func (v *Violation) Unwrap() error { return sim.ErrInvariant }

// Checker is one invariant check, run against the whole device.
type Checker interface {
	Name() string
	Check(d *sim.Device, now int64) *Violation
}

// endChecker is implemented by checkers with an additional end-of-kernel
// obligation (e.g. zero leaked SRP sections).
type endChecker interface {
	CheckEnd(d *sim.Device) *Violation
}

// DefaultEvery is the audit epoch the harness uses for bulk sweeps: often
// enough to localize a corruption within a few hundred cycles, cheap enough
// (the scoreboard check walks every register of every warp) that audited
// sweeps stay within a few percent of unaudited runtime.
const DefaultEvery = 256

// Auditor runs a checker set against a device; it implements sim.AuditHook.
type Auditor struct {
	// Every is the audit epoch in cycles: checks run when at least Every
	// cycles have passed since the last audited cycle. Zero audits every
	// simulated step (the right choice for tests; costs ~2-3x runtime).
	Every int64

	checkers []Checker
	lastAt   int64
	ran      bool
}

// New builds an auditor over the given checkers.
func New(every int64, checkers ...Checker) *Auditor {
	return &Auditor{Every: every, checkers: checkers}
}

// Standard returns the full default checker set.
func Standard(every int64) *Auditor {
	return New(every,
		PolicyChecker{},
		BarrierChecker{},
		StackChecker{},
		ScoreboardChecker{},
		SlotChecker{},
		StallChecker{},
	)
}

// CheckCycle implements sim.AuditHook.
func (a *Auditor) CheckCycle(d *sim.Device, now int64) error {
	if a.ran && now-a.lastAt < a.Every {
		return nil
	}
	a.ran, a.lastAt = true, now
	for _, c := range a.checkers {
		if v := c.Check(d, now); v != nil {
			return v
		}
	}
	return nil
}

// CheckEnd implements sim.AuditHook: every per-cycle rule must still hold
// on the final machine state, plus the end-only obligations (leak checks).
func (a *Auditor) CheckEnd(d *sim.Device) error {
	now := d.Now()
	for _, c := range a.checkers {
		if v := c.Check(d, now); v != nil {
			return v
		}
		if ec, ok := c.(endChecker); ok {
			if v := ec.CheckEnd(d); v != nil {
				return v
			}
		}
	}
	return nil
}
