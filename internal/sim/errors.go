package sim

import (
	"errors"
	"fmt"
)

// Sentinel errors for the simulator's failure classes. They are attached
// to the rich diagnostic types below via Unwrap, so callers classify
// failures with errors.Is and keep sweeps running instead of dying:
//
//	if errors.Is(err, sim.ErrDeadlock) { ... render ERR(deadlock) ... }
var (
	// ErrDeadlock marks a wedged machine: live warps exist but nothing
	// can ever issue again (circular acquire/barrier waits).
	ErrDeadlock = errors.New("deadlock")

	// ErrLivelock marks a machine that keeps issuing without retiring
	// work: warps spin on acquire retries (or a runaway loop hits the
	// MaxCycles backstop) while no CTA completes.
	ErrLivelock = errors.New("livelock")

	// ErrNoWarpSlot marks a residency-accounting violation: a CTA launch
	// found no free warp slot even though the dispatcher's occupancy
	// checks said it would fit.
	ErrNoWarpSlot = errors.New("no free warp slot")

	// ErrInvariant marks a machine-state invariant violation detected by
	// an attached audit hook (see internal/audit).
	ErrInvariant = errors.New("invariant violation")

	// ErrCanceled marks a run abandoned because its context was canceled
	// (client disconnect, job cancellation, daemon shutdown). The run's
	// partial state is discarded; re-running the same device is not
	// supported.
	ErrCanceled = errors.New("run canceled")
)

// CanceledError reports where a context-canceled run stopped. It unwraps
// to both ErrCanceled and the context's own error, so callers can match
// either errors.Is(err, sim.ErrCanceled) or errors.Is(err,
// context.Canceled).
type CanceledError struct {
	Kernel string
	Policy string
	Cycle  int64
	Cause  error // the context error (context.Canceled or DeadlineExceeded)
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: kernel %s under %s canceled at cycle %d: %v",
		e.Kernel, e.Policy, e.Cycle, e.Cause)
}

// Unwrap exposes both the sentinel and the context cause.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Cause} }

// WedgeKind labels how forward progress was lost.
type WedgeKind string

const (
	// WedgeDeadlock: nothing issued and no event is pending.
	WedgeDeadlock WedgeKind = "deadlock"
	// WedgeLivelock: the progress watchdog saw acquire retries without a
	// single success or warp completion for several epochs.
	WedgeLivelock WedgeKind = "livelock"
	// WedgeMaxCycles: the flat cycle ceiling, the last-resort backstop a
	// watchdog-detected failure should never reach.
	WedgeMaxCycles WedgeKind = "max-cycles"
)

// WarpDiag locates the first stalled warp in a wedge diagnostic.
type WarpDiag struct {
	SM     int
	Widx   int
	Kernel string
	PC     int
	Instr  string
	Stack  int
}

// DeadlockError is the structured diagnostic for a machine that stopped
// making forward progress: deadlock, watchdog-detected livelock, or the
// MaxCycles backstop. It unwraps to ErrDeadlock or ErrLivelock so the
// harness can classify rows without string matching.
type DeadlockError struct {
	Kind   WedgeKind
	Kernel string
	Policy string
	Cycle  int64

	LiveWarps int // unfinished warps on the device
	AtBarrier int // of those, parked at a CTA barrier
	Stalled   int // of those, runnable but unable to issue

	DoneCTAs   int
	TargetCTAs int

	// StuckWarps counts live warps that issued nothing during the last
	// watchdog epoch (epoch-watchdog wedges only; 0 otherwise).
	StuckWarps int

	// SRP occupancy snapshot; Sections < 0 when the policy has no SRP.
	SRPHeld     int
	SRPSections int

	// MaxCycles is the ceiling that fired (WedgeMaxCycles only).
	MaxCycles int64

	// First identifies the first stalled warp, when one exists.
	First *WarpDiag
}

// Unwrap classifies the wedge: deadlocks are ErrDeadlock, both livelock
// kinds (watchdog and MaxCycles backstop) are ErrLivelock.
func (e *DeadlockError) Unwrap() error {
	if e.Kind == WedgeDeadlock {
		return ErrDeadlock
	}
	return ErrLivelock
}

func (e *DeadlockError) Error() string {
	var head, stuck, srp, first string
	switch e.Kind {
	case WedgeMaxCycles:
		head = fmt.Sprintf("sim: kernel %s exceeded %d cycles (possible livelock): ", e.Kernel, e.MaxCycles)
	case WedgeLivelock:
		head = fmt.Sprintf("sim: livelock in kernel %s under %s at cycle %d: warps retry acquires without retiring; ", e.Kernel, e.Policy, e.Cycle)
	default:
		head = fmt.Sprintf("sim: deadlock in kernel %s under %s: ", e.Kernel, e.Policy)
	}
	if e.StuckWarps > 0 {
		stuck = fmt.Sprintf(", %d issued nothing last epoch", e.StuckWarps)
	}
	if e.SRPSections >= 0 {
		srp = fmt.Sprintf(", SRP %d/%d held", e.SRPHeld, e.SRPSections)
	}
	if e.First != nil {
		first = fmt.Sprintf("; first stalled: SM%d warp %d (kernel %s) at pc %d (%s), stack %d",
			e.First.SM, e.First.Widx, e.First.Kernel, e.First.PC, e.First.Instr, e.First.Stack)
	}
	return head + fmt.Sprintf("%d live warps (%d at barriers, %d stalled%s), %d/%d CTAs done%s%s",
		e.LiveWarps, e.AtBarrier, e.Stalled, stuck, e.DoneCTAs, e.TargetCTAs, srp, first)
}
