// Package faults injects deterministic hardware faults into a running
// simulation to prove the robustness net — the invariant auditor
// (internal/audit) and the device's forward-progress watchdogs — catches
// every hang class with a precise typed error instead of letting it escape
// to the flat MaxCycles ceiling.
//
// Injection works by wrapping the simulation Policy: the wrapper delegates
// everything to the real policy but perturbs one interaction on SM 0,
// selected by a Plan. Faults are a pure function of the plan (no clocks,
// no RNG), so a failing run reproduces exactly from its plan string.
package faults

import (
	"fmt"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/sim"
)

// Class names one injectable fault.
type Class string

const (
	// SwallowRelease drops the target warp's REL side effect and its
	// defensive exit-time release: the SRP section is held forever.
	// Caught as a deadlock (waiters starve) or an end-of-kernel section
	// leak, depending on remaining demand.
	SwallowRelease Class = "swallow-release"

	// SpuriousAcqFail makes every ACQ of the target warp fail even when
	// sections are free. The warp never progresses; caught as a deadlock
	// once the rest of the machine drains.
	SpuriousAcqFail Class = "spurious-acq-fail"

	// LostWriteback reschedules all of the target warp's pending
	// writebacks far past the architectural latency bound, modelling a
	// lost memory response. Caught by the scoreboard-horizon audit.
	LostWriteback Class = "lost-writeback"

	// CorruptSRPMask clears the SRP-bitmask bit of a section the target
	// warp holds, modelling a soft error in the pool bitmask. Caught by
	// the SRP conservation audit.
	CorruptSRPMask Class = "corrupt-srp-mask"

	// StallBarrier keeps the target warp from ever issuing its BarSync,
	// stranding its CTA partners at the barrier. Caught as a deadlock
	// with a nonzero at-barrier count.
	StallBarrier Class = "stall-barrier"

	// CorruptRFVRows steals a physical row from the RFV free-row count
	// (register availability vector soft error). Caught by the RFV row
	// accounting audit.
	CorruptRFVRows Class = "corrupt-rfv-rows"
)

// Classes lists every injectable fault class.
func Classes() []Class {
	return []Class{SwallowRelease, SpuriousAcqFail, LostWriteback,
		CorruptSRPMask, StallBarrier, CorruptRFVRows}
}

// Plan selects one fault deterministically.
type Plan struct {
	Class Class
	// Warp is the target Widx on SM 0.
	Warp int
	// After skips that many matching trigger events before firing
	// (0 = fire on the first).
	After int
}

func (p Plan) String() string {
	return fmt.Sprintf("%s@warp%d+%d", p.Class, p.Warp, p.After)
}

// Inject wraps pol so that running under the returned policy experiences
// the planned fault on SM 0. All other SMs run the real policy untouched.
func Inject(pol sim.Policy, plan Plan) sim.Policy {
	return &injector{inner: pol, plan: plan}
}

type injector struct {
	inner sim.Policy
	plan  Plan
}

func (i *injector) Name() string { return i.inner.Name() + "+" + i.plan.String() }

func (i *injector) CTAsPerSM(k *isa.Kernel) int { return i.inner.CTAsPerSM(k) }

func (i *injector) NewSMState(sm *sim.SM) sim.PolicyState {
	st := i.inner.NewSMState(sm)
	if sm.ID() != 0 {
		return st
	}
	return &faultState{inner: st, plan: i.plan}
}

// faultState wraps one SM's policy state, perturbing the planned
// interaction and delegating the rest. It forwards the optional self-audit
// and SRP-snapshot surfaces so the audit layer and wedge diagnostics see
// through the wrapper.
type faultState struct {
	inner sim.PolicyState
	plan  Plan
	seen  int // matching trigger events observed so far
	fired bool
}

// trigger reports whether this matching event is the planned one.
func (f *faultState) trigger() bool {
	if f.fired {
		return false
	}
	if f.seen < f.plan.After {
		f.seen++
		return false
	}
	f.fired = true
	return true
}

func (f *faultState) TryIssue(w *sim.Warp, in *isa.Instr, now int64) bool {
	target := w.Widx == f.plan.Warp
	switch {
	case f.plan.Class == SpuriousAcqFail && target && in.Op == isa.OpAcq:
		// The acquire fails at the gate; the real policy never sees it.
		return false
	case f.plan.Class == StallBarrier && target && in.Op == isa.OpBarSync:
		return false
	case f.plan.Class == SwallowRelease && target && in.Op == isa.OpRel && (f.fired || f.trigger()):
		// The REL issues architecturally but its release is lost. Every
		// later release on the slot is lost too — otherwise a fresh warp
		// reusing the slot would inherit the held section and release
		// it, silently healing the leak.
		return true
	}
	ok := f.inner.TryIssue(w, in, now)
	if ok && f.plan.Class == CorruptSRPMask && target && in.Op == isa.OpAcq && f.trigger() {
		if s, can := f.inner.(interface{ SRP() *core.SRP }); can {
			s.SRP().FlipSection(s.SRP().Section(w.Widx))
		}
	}
	return ok
}

func (f *faultState) OnIssued(w *sim.Warp, in *isa.Instr, now int64) {
	f.inner.OnIssued(w, in, now)
	if w.Widx != f.plan.Warp {
		return
	}
	switch f.plan.Class {
	case LostWriteback:
		if f.trigger() {
			w.DelayWriteback(now, now+1_000_000) // far past any latency bound
		}
	case CorruptRFVRows:
		if f.trigger() {
			if s, can := f.inner.(interface{ CorruptFreeRows(int) }); can {
				s.CorruptFreeRows(-1)
			}
		}
	}
}

func (f *faultState) OnWarpExit(w *sim.Warp) {
	if f.plan.Class == SwallowRelease && w.Widx == f.plan.Warp && f.fired {
		// The defensive exit-time release is lost with the REL: the
		// section stays held by a dead warp.
		return
	}
	f.inner.OnWarpExit(w)
}

func (f *faultState) Priority(w *sim.Warp) int { return f.inner.Priority(w) }

func (f *faultState) Counters() (uint64, uint64, uint64) { return f.inner.Counters() }

// AuditCycle forwards the self-audit surface through the wrapper.
func (f *faultState) AuditCycle() error {
	if sa, ok := f.inner.(interface{ AuditCycle() error }); ok {
		return sa.AuditCycle()
	}
	return nil
}

// AuditEnd forwards the end-of-kernel audit through the wrapper.
func (f *faultState) AuditEnd() error {
	if sa, ok := f.inner.(interface{ AuditEnd() error }); ok {
		return sa.AuditEnd()
	}
	return nil
}

// HeldSections forwards the SRP occupancy snapshot for wedge diagnostics.
func (f *faultState) HeldSections() int {
	if s, ok := f.inner.(interface{ HeldSections() int }); ok {
		return s.HeldSections()
	}
	return 0
}

// SRPSectionCount forwards the section total for wedge diagnostics; -1
// means the wrapped policy has no SRP and the snapshot is suppressed.
func (f *faultState) SRPSectionCount() int {
	if s, ok := f.inner.(interface{ SRPSectionCount() int }); ok {
		return s.SRPSectionCount()
	}
	return -1
}
