package sim

// This file is the simulator's instrumentation surface: per-cycle stall
// attribution and the Observer interface that carries it (plus coarse
// events and utilisation samples) out of the machine. internal/obs builds
// the user-facing layer — ring-buffered traces, Chrome trace-event export,
// metrics — on top of these hooks.
//
// Attribution model: every scheduler slot of every stepped cycle is
// charged to exactly one StallCause. When a slot issues, the cause is
// CauseIssued and the charge goes to the issuing warp. When it does not,
// the charge goes to the warp the scheduler most wanted to run (greedy
// pick first, then priority/oldest order) with the first reason that
// warp could not issue — a warp stalled on several hazards in one cycle
// is charged the highest-priority one only (scoreboard, then structural
// memory/SFU back-pressure, then the policy's acquire gate). Slots with
// no runnable candidate are classified CauseBarrier (every mapped warp
// is parked at a CTA barrier), CauseNoWarp (no live warp maps to the
// scheduler), or CauseEmpty (the SM has no resident warps at all).
//
// The accounting is conservative by construction and auditor-checked:
// summed over causes, each SM's StallBreakdown equals the current cycle
// times SchedulersPerSM at every point Run can observe it (cycles the
// event-driven fast-forward skips are charged in bulk to the causes the
// last stepped cycle recorded, which by definition cannot change during
// a skip).

// StallCause identifies what a scheduler slot spent a cycle on.
type StallCause int8

// The scheduler-slot attribution causes. Exactly one is charged per
// scheduler slot per cycle.
const (
	// CauseIssued: the slot issued an instruction.
	CauseIssued StallCause = iota
	// CauseScoreboard: the preferred warp waits on a pending register
	// or predicate writeback.
	CauseScoreboard
	// CauseMemory: structural pipeline back-pressure — the global-memory
	// queue is full or the cycle's SFU port is taken.
	CauseMemory
	// CauseAcquire: the policy gate refused issue (a failed SRP or
	// pair-mutex acquire, an OWF lock, an RFV allocation stall).
	CauseAcquire
	// CauseBarrier: every live warp mapped to the slot is parked at a
	// CTA barrier.
	CauseBarrier
	// CauseNoWarp: the SM is occupied but no live warp maps to this
	// scheduler slot.
	CauseNoWarp
	// CauseEmpty: the SM has no resident warps (drained, or the grid
	// never filled it).
	CauseEmpty

	// NumStallCauses sizes StallBreakdown.
	NumStallCauses = int(CauseEmpty) + 1
)

// causeInvalid marks "no cause recorded yet" inside the issue loop; it
// never escapes the simulator.
const causeInvalid StallCause = -1

var causeNames = [NumStallCauses]string{
	"issued", "scoreboard", "memory", "acquire-wait", "barrier", "no-warp", "empty",
}

// String returns the cause's stable wire name (used in traces, metrics,
// and the timeline legend).
func (c StallCause) String() string {
	if c < 0 || int(c) >= NumStallCauses {
		return "invalid"
	}
	return causeNames[c]
}

// StallCauses lists every cause in charge-priority order.
func StallCauses() []StallCause {
	out := make([]StallCause, NumStallCauses)
	for i := range out {
		out[i] = StallCause(i)
	}
	return out
}

// StallBreakdown is a per-cause count of scheduler-slot cycles, indexed
// by StallCause. Summed over causes it equals slots × cycles exactly —
// the conservation law internal/audit's StallChecker enforces.
type StallBreakdown [NumStallCauses]int64

// Total sums every cause (issued included).
func (b StallBreakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Stalled sums every non-issued cause.
func (b StallBreakdown) Stalled() int64 { return b.Total() - b[CauseIssued] }

// add accumulates o into b.
func (b *StallBreakdown) add(o StallBreakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// StallSlot is one scheduler slot's attribution for one cycle, delivered
// to Observer.OnStall (issued slots included, so observers can build
// complete issue/stall span timelines).
type StallSlot struct {
	Cycle     int64
	SM        int
	Scheduler int
	Cause     StallCause
	// Warp is the charged warp: the issuer for CauseIssued, the
	// scheduler's preferred blocked warp for hazard causes, a parked
	// warp for CauseBarrier, nil for CauseNoWarp/CauseEmpty.
	Warp *Warp
}

// Observer is the unified instrumentation interface. Implementations
// must treat the machine as read-only; the simulator guarantees that an
// attached observer never changes simulated timing or results.
//
// OnEvent receives coarse structural events (CTA launch/retire, SRP
// acquire attempts with outcomes, releases). OnCycleSample receives a
// utilisation snapshot every SampleInterval cycles. OnStall receives
// every scheduler slot's per-cycle attribution — the hot hook; it is
// only invoked while an observer is attached.
type Observer interface {
	OnEvent(ev Event)
	OnCycleSample(s Sample)
	OnStall(s StallSlot)
}

// ObserverFuncs adapts plain functions to Observer; nil fields are
// simply skipped.
type ObserverFuncs struct {
	Event  func(Event)
	Sample func(Sample)
	Stall  func(StallSlot)
}

// OnEvent implements Observer.
func (o ObserverFuncs) OnEvent(ev Event) {
	if o.Event != nil {
		o.Event(ev)
	}
}

// OnCycleSample implements Observer.
func (o ObserverFuncs) OnCycleSample(s Sample) {
	if o.Sample != nil {
		o.Sample(s)
	}
}

// OnStall implements Observer.
func (o ObserverFuncs) OnStall(s StallSlot) {
	if o.Stall != nil {
		o.Stall(s)
	}
}

// multiObserver fans callbacks out to several observers in order.
type multiObserver []Observer

func (m multiObserver) OnEvent(ev Event) {
	for _, o := range m {
		o.OnEvent(ev)
	}
}

func (m multiObserver) OnCycleSample(s Sample) {
	for _, o := range m {
		o.OnCycleSample(s)
	}
}

func (m multiObserver) OnStall(s StallSlot) {
	for _, o := range m {
		o.OnStall(s)
	}
}

// MultiObserver combines observers into one; nil entries are dropped.
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

// observing reports whether an Observer is attached; policies consult
// it before building events on hot failure paths.
func (d *Device) observing() bool { return d.obs != nil }

// Breakdown returns the device-wide stall attribution accumulated so
// far (per-SM breakdowns summed).
func (d *Device) Breakdown() StallBreakdown {
	var b StallBreakdown
	for _, sm := range d.sms {
		b.add(sm.stalls)
	}
	return b
}
