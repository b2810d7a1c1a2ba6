package sim

import "regmutex/internal/isa"

// This file is the read-only view the audit and fault-injection layers
// (internal/audit, internal/faults) use to inspect a running machine.
// Everything here is an accessor; nothing mutates simulator state.

// SMs returns the device's streaming multiprocessors.
func (d *Device) SMs() []*SM { return d.sms }

// Now returns the current simulation cycle.
func (d *Device) Now() int64 { return d.now }

// ID returns the SM's index on the device.
func (sm *SM) ID() int { return sm.id }

// Warps returns the SM's resident warps (finished warps of live CTAs
// included; retired CTAs' warps are removed).
func (sm *SM) Warps() []*Warp { return sm.warps }

// ResidentCTAs returns the SM's currently resident CTAs.
func (sm *SM) ResidentCTAs() []*CTAState { return sm.ctas }

// State returns the SM's per-policy mutable state; the audit layer
// type-asserts the optional self-audit interfaces against it.
func (sm *SM) State() PolicyState { return sm.policy }

// UsedSlots returns how many warp slots are currently occupied.
func (sm *SM) UsedSlots() int { return len(sm.slots) - sm.freeSlots() }

// SlotTaken reports whether warp slot i is occupied.
func (sm *SM) SlotTaken(i int) bool { return i >= 0 && i < len(sm.slots) && sm.slots[i] }

// Stalls returns the SM's per-cause scheduler-slot attribution so far.
// At every point the audit layer can observe (the top of Run's loop and
// kernel end), its sum equals Now() × SchedulersPerSM exactly.
func (sm *SM) Stalls() StallBreakdown { return sm.stalls }

// LastIssue returns the PC of the warp's most recent issued instruction
// and the lanes active on it (guarded-off lanes included: they follow
// the instruction's path without executing it). An observer reading it
// on a CauseIssued slot sees the instruction that slot issued.
func (w *Warp) LastIssue() (pc int, active uint32) { return w.lastPC, uint32(w.lastActive) }

// Kernel returns the kernel this CTA belongs to.
func (c *CTAState) Kernel() *isa.Kernel { return c.kern }

// Warps returns the CTA's warps.
func (c *CTAState) Warps() []*Warp { return c.warps }

// BarWaiting returns how many of the CTA's warps are parked at the
// current barrier.
func (c *CTAState) BarWaiting() int { return c.barWaiting }

// LiveWarps returns warps of the CTA that have not finished.
func (c *CTAState) LiveWarps() int { return c.liveWarps() }
