package sim

import (
	"context"
	"runtime"
	"strings"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// Device is the whole GPU: SMs, global memory, and the CTA dispatcher.
type Device struct {
	Config occupancy.Config
	Timing Timing
	Kernel *isa.Kernel
	Policy Policy

	Global []uint64
	sms    []*SM

	// Par is the worker count for the parallel-across-SMs engine: values
	// above 1 shard the SMs over min(Par, NumSMs) persistent workers that
	// step concurrently between cycle barriers; 0 means automatic
	// (GOMAXPROCS) and 1 forces the serial engine. Both engines produce
	// byte-identical Stats, traces, and audit results (see DESIGN.md
	// §11). Set it before Run (or via WithParallelism).
	Par int

	nextCTA  int
	doneCTAs int
	warpSeq  int64
	now      int64

	// Multi-kernel co-scheduling state (NewMultiDevice); nil kernels
	// means the normal single-kernel mode.
	kernels   []*isa.Kernel
	globals   [][]uint64
	multiNext []int
	multiRR   int
	totalCTAs int

	// snapEpoch tags the forward-progress watchdog's per-warp snapshots
	// (see markWarpProgress); it replaces the per-check map allocation.
	snapEpoch uint64

	// fatalErr latches the first unrecoverable machine error (e.g. a
	// warp-slot accounting violation); Run surfaces it.
	fatalErr error

	// Audit, when non-nil, is consulted every cycle and at kernel end;
	// a returned error aborts the run (see internal/audit). Keep it nil
	// for performance runs.
	Audit AuditHook

	// SampleInterval spaces the utilisation samples delivered to the
	// attached Observer's OnCycleSample (see WithSampleInterval).
	SampleInterval int64
	nextSample     int64

	// obs is the attached Observer (nil when detached); set via
	// WithObserver so it sees the initial CTA wave.
	obs Observer
}

// Sample is a point-in-time utilisation snapshot across the device.
type Sample struct {
	Cycle         int64
	ResidentWarps int // warps currently resident on all SMs
	HeldSections  int // SRP sections currently acquired (RegMutex only)
}

// AuditHook validates machine invariants while a device runs. CheckCycle
// is called once per simulated step (implementations choose their own
// cadence internally); CheckEnd is called after the last CTA retires.
// Returning a non-nil error aborts the run with that error.
type AuditHook interface {
	CheckCycle(d *Device, now int64) error
	CheckEnd(d *Device) error
}

// Event is a coarse notification for visualisation hooks.
type Event struct {
	Cycle int64
	SM    int
	Kind  string // "cta-launch", "cta-retire", "acquire", "release"
	Warp  int    // Widx where applicable
	Data  int
}

// fail latches the first unrecoverable machine error; Run (or New, for
// launch-time failures) surfaces it to the caller. It is only called
// from barrier-serialized paths (CTA launch/retire), never from inside a
// worker's step.
func (d *Device) fail(err error) {
	if d.fatalErr == nil {
		d.fatalErr = err
	}
}

func (d *Device) emit(ev Event) {
	if d.obs != nil {
		d.obs.OnEvent(ev)
	}
}

// onCTAComplete runs at the cycle-end barrier for each CTA that retired
// this cycle (in SM order); the dispatcher backfills from the pending
// grid onto the SM that freed the slots.
func (d *Device) onCTAComplete(sm *SM, cta *CTAState) {
	d.doneCTAs++
	d.emit(Event{Cycle: d.now, SM: sm.id, Kind: "cta-retire", Data: cta.ID})
	if d.multi() {
		for d.multiBackfill(sm) {
		}
		return
	}
	k := d.Kernel
	ctasPerSM := d.Policy.CTAsPerSM(k)
	for d.nextCTA < k.GridCTAs && len(sm.ctas) < ctasPerSM && sm.freeSlots() >= k.WarpsPerCTA() {
		sm.launchCTA(d.nextCTA)
		d.emit(Event{Cycle: d.now, SM: sm.id, Kind: "cta-launch", Data: d.nextCTA})
		d.nextCTA++
	}
}

// GlobalOf returns kernel i's global memory (i = the kernel's position in
// the NewMultiDevice slice; 0 for single-kernel devices).
func (d *Device) GlobalOf(i int) []uint64 {
	if d.multi() {
		return d.globals[i]
	}
	return d.Global
}

// Stats summarises a finished run.
type Stats struct {
	Cycles       int64
	Instructions int64
	CTAs         int

	// AcqRelInstructions counts the ACQ/REL primitives among
	// Instructions; differential testing subtracts them so instruction
	// counts compare across RegMutex-transformed and untouched kernels.
	AcqRelInstructions int64

	// AvgOccupancyWarps is resident warps averaged over SM active
	// cycles (achieved, not theoretical).
	AvgOccupancyWarps float64

	// RegMutex counters aggregated over SMs (zero for other policies).
	AcquireAttempts  uint64
	AcquireSuccesses uint64
	Releases         uint64

	// Stall holds the full per-cause scheduler-slot attribution summed
	// over SMs: exactly one cause is charged per scheduler slot per
	// cycle, so Stall.Total() == SchedSlots (auditor-checked).
	Stall StallBreakdown

	// SchedSlots is the scheduler-slot-cycles the run covered:
	// Cycles × NumSMs × SchedulersPerSM.
	SchedSlots int64

	// ScoreboardStalls, MemStalls, and AcquireStalls are views into
	// Stall (kept for existing consumers). They are derived from the
	// single-cause attribution, so a warp blocked on several hazards in
	// one cycle is counted once, under the highest-priority cause.
	ScoreboardStalls int64
	MemStalls        int64
	AcquireStalls    int64

	// Register file traffic in warp-row accesses, the inputs to the
	// energy model (internal/energy).
	RFReads  int64
	RFWrites int64

	OOBAccesses int64
}

// AcquireSuccessRate returns the fraction of acquire attempts that
// succeeded (Figure 11b / Figure 13), or 1 when no acquires ran.
func (s Stats) AcquireSuccessRate() float64 {
	if s.AcquireAttempts == 0 {
		return 1
	}
	return float64(s.AcquireSuccesses) / float64(s.AcquireAttempts)
}

// progressTotals is what the forward-progress watchdog compares across
// epochs: global issue, completion, and acquire counters. The per-warp
// part of the snapshot lives on the warps themselves (markWarpProgress),
// so an epoch check allocates nothing.
type progressTotals struct {
	issued    int64
	doneCTAs  int
	retired   int64
	attempts  uint64
	successes uint64
}

func (d *Device) progressTotals() progressTotals {
	s := progressTotals{doneCTAs: d.doneCTAs}
	for _, sm := range d.sms {
		s.issued += sm.issued
		s.retired += sm.warpsRetired
		a, ok, _ := sm.policy.Counters()
		s.attempts += a
		s.successes += ok
	}
	return s
}

// markWarpProgress stamps every live warp's Issued count with a fresh
// epoch tag; stuckSince compares against it at the next epoch boundary.
func (d *Device) markWarpProgress() {
	d.snapEpoch++
	for _, sm := range d.sms {
		for _, w := range sm.warps {
			if !w.Finished() {
				w.snapIssued = w.Issued
				w.snapEpoch = d.snapEpoch
			}
		}
	}
}

// stuckSince counts live warps that issued nothing since the last
// markWarpProgress (the per-warp progress-epoch part of the watchdog).
func (d *Device) stuckSince() int {
	n := 0
	for _, sm := range d.sms {
		for _, w := range sm.warps {
			if w.Finished() || w.snapEpoch != d.snapEpoch {
				continue
			}
			if w.Issued == w.snapIssued {
				n++
			}
		}
	}
	return n
}

// settleAll completes every SM's lazy stall attribution through the
// current cycle, so audits and Stats observe the conservation law
// (stalls sum to cycles × slots) exactly.
func (d *Device) settleAll() {
	for _, sm := range d.sms {
		sm.settleTo(d.now)
	}
}

// finishCycle is the cycle-end barrier, shared by both engines. Global
// effects buffered during the cycle are applied here in fixed SM order —
// stores commit, buffered observer callbacks replay, finished CTAs
// retire and backfill — which is what makes results identical whether
// SMs stepped serially or on concurrent workers.
func (d *Device) finishCycle() {
	for _, sm := range d.sms {
		if len(sm.stores) > 0 {
			sm.applyStores()
		}
	}
	for _, sm := range d.sms {
		if len(sm.obsBuf) == 0 {
			continue
		}
		for i := range sm.obsBuf {
			r := &sm.obsBuf[i]
			if r.isEvent {
				d.emit(r.ev)
			} else if d.obs != nil {
				d.obs.OnStall(r.slot)
			}
		}
		sm.obsBuf = sm.obsBuf[:0]
	}
	for _, sm := range d.sms {
		if len(sm.pendingRetire) == 0 {
			continue
		}
		for i, cta := range sm.pendingRetire {
			sm.retireCTA(cta)
			d.onCTAComplete(sm, cta)
			sm.pendingRetire[i] = nil
		}
		sm.pendingRetire = sm.pendingRetire[:0]
		// Freed slots (and possibly fresh CTAs) change what the SM can
		// do next cycle: wake it so schedulers reclassify.
		sm.wakeAt = d.now + 1
	}
}

// Run simulates until every CTA has retired and returns the statistics.
//
// Three guards watch forward progress, from fastest to last-resort: an
// idle detector (nothing issued, no event pending, for
// IdleDeadlockThreshold cycles → ErrDeadlock), a progress-epoch watchdog
// (every ProgressEpoch cycles; a silent epoch → ErrDeadlock, and
// LivelockEpochs epochs of acquire retries with zero successes and zero
// warp completions → ErrLivelock), and the flat MaxCycles ceiling. All
// three return a *DeadlockError carrying the machine snapshot.
func (d *Device) Run() (Stats, error) { return d.RunContext(context.Background()) }

// ctxCheckStride is how many scheduler-loop iterations RunContext lets
// pass between context polls. Each iteration advances simulated time by
// at least one cycle, so a canceled run is released within a few thousand
// cycles of work — orders of magnitude inside one watchdog epoch.
const ctxCheckStride = 4096

// RunContext is Run with cooperative cancellation: when ctx is canceled
// the simulation abandons the machine mid-flight and returns a
// *CanceledError (matching both ErrCanceled and the context's error)
// instead of simulating on to MaxCycles. A context that can never be
// canceled costs nothing on the hot path.
//
// The engine is event-driven per SM: an SM that issued nothing, saw no
// policy-gate retry, and has no pending scoreboard or memory event
// sleeps until its own next event, and the device hops straight to the
// earliest wake-up when no SM is due — the multi-SM generalisation of
// the old whole-device fast-forward. With Par > 1 the due SMs of each
// cycle step on a persistent worker pool between barriers (see
// parallel.go); all global actions stay serialized in SM order at the
// barrier, so Stats are byte-identical at any worker count.
func (d *Device) RunContext(ctx context.Context) (Stats, error) {
	target := d.Kernel.GridCTAs
	if d.multi() {
		target = d.totalCTAs
	}
	idleThr := d.Timing.IdleDeadlockThreshold
	if idleThr <= 0 {
		idleThr = DefaultIdleDeadlockThreshold
	}
	epoch := d.Timing.ProgressEpoch
	if epoch <= 0 {
		epoch = DefaultProgressEpoch
	}
	livelockEpochs := d.Timing.LivelockEpochs
	if livelockEpochs <= 0 {
		livelockEpochs = DefaultLivelockEpochs
	}

	var pool *smPool
	if workers := poolWidth(d.Par, len(d.sms)); workers > 1 {
		pool = newSMPool(d, workers)
		defer pool.stop()
	}

	cancelable := ctx.Done() != nil
	ctxCountdown := 0
	idle := int64(0)
	staleEpochs := 0
	nextEpoch := d.now + epoch
	prev := d.progressTotals()
	d.markWarpProgress()
	for d.doneCTAs < target {
		if cancelable {
			if ctxCountdown--; ctxCountdown <= 0 {
				if err := ctx.Err(); err != nil {
					return Stats{}, &CanceledError{
						Kernel: d.Kernel.Name, Policy: d.Policy.Name(),
						Cycle: d.now, Cause: err,
					}
				}
				ctxCountdown = ctxCheckStride
			}
		}
		if d.fatalErr != nil {
			return Stats{}, d.fatalErr
		}
		if d.now > d.Timing.MaxCycles {
			return Stats{}, d.wedgeError(WedgeMaxCycles)
		}
		if d.Audit != nil {
			d.settleAll()
			if err := d.Audit.CheckCycle(d, d.now); err != nil {
				return Stats{}, err
			}
		}
		if d.now >= nextEpoch {
			cur := d.progressTotals()
			switch {
			case cur.issued == prev.issued:
				// A whole epoch without a single issue anywhere: events
				// may still be draining, but no warp can make progress.
				return Stats{}, d.wedgeError(WedgeDeadlock)
			case cur.doneCTAs == prev.doneCTAs && cur.retired == prev.retired &&
				cur.successes == prev.successes && cur.attempts > prev.attempts:
				// The machine is busy, but every acquire attempt since
				// the last epoch failed and no warp completed: warps are
				// spinning on acquire retries.
				staleEpochs++
				if staleEpochs >= livelockEpochs {
					e := d.wedgeError(WedgeLivelock)
					e.StuckWarps = d.stuckSince()
					return Stats{}, e
				}
			default:
				staleEpochs = 0
			}
			d.markWarpProgress()
			prev = cur
			nextEpoch = d.now + epoch
		}
		if d.obs != nil && d.now >= d.nextSample {
			d.obs.OnCycleSample(d.sample())
			if d.SampleInterval <= 0 {
				d.SampleInterval = 256
			}
			d.nextSample = d.now + d.SampleInterval
		}
		// Find SMs due this cycle; with none due, hop straight to the
		// earliest wake-up (the widened fast-forward: it no longer needs
		// every SM blocked on the same cycle, each sleeps on its own).
		due := false
		next := int64(-1)
		for _, sm := range d.sms {
			if sm.wakeAt <= d.now {
				due = true
			} else if sm.wakeAt != sleepForever && (next < 0 || sm.wakeAt < next) {
				next = sm.wakeAt
			}
		}
		if !due {
			if next < 0 {
				// No SM is due and nothing is pending anywhere: the
				// machine can only deadlock from here.
				idle++
				if idle > idleThr {
					return Stats{}, d.wedgeError(WedgeDeadlock)
				}
				d.now++
				continue
			}
			idle = 0
			d.now = next
			continue
		}
		idle = 0
		if pool != nil {
			pool.runCycle(d.now)
		} else {
			for _, sm := range d.sms {
				if sm.wakeAt <= d.now {
					sm.step(d.now)
				}
			}
		}
		d.finishCycle()
		d.now++
	}
	if d.fatalErr != nil {
		return Stats{}, d.fatalErr
	}
	d.settleAll()
	if d.Audit != nil {
		if err := d.Audit.CheckEnd(d); err != nil {
			return Stats{}, err
		}
	}
	return d.collectStats(), nil
}

// poolWidth resolves the requested parallelism: 0 means automatic
// (GOMAXPROCS), the result is clamped to the SM count, and anything
// resolving at or below 1 selects the serial engine.
func poolWidth(par, sms int) int {
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > sms {
		par = sms
	}
	return par
}

// deadlockError builds the deadlock diagnostic for a wedged machine
// (kept as a thin wrapper; wedgeError is the shared scan).
func (d *Device) deadlockError() error { return d.wedgeError(WedgeDeadlock) }

// wedgeError builds the structured *DeadlockError diagnostic. In
// multi-kernel mode each warp may belong to a different kernel, so the
// stalled instruction is decoded against the warp's own kernel and the
// CTA target is the combined grid. The snapshot includes current SRP
// occupancy when the policy exposes one.
func (d *Device) wedgeError(kind WedgeKind) *DeadlockError {
	e := &DeadlockError{
		Kind:        kind,
		Policy:      d.Policy.Name(),
		Cycle:       d.now,
		DoneCTAs:    d.doneCTAs,
		MaxCycles:   d.Timing.MaxCycles,
		SRPHeld:     -1,
		SRPSections: -1,
	}
	for _, sm := range d.sms {
		if s, ok := sm.policy.(interface {
			HeldSections() int
			SRPSectionCount() int
		}); ok {
			// A negative count means "no SRP here" (e.g. a fault-injection
			// wrapper around a policy without one): keep the snapshot off.
			if n := s.SRPSectionCount(); n >= 0 {
				if e.SRPSections < 0 {
					e.SRPHeld, e.SRPSections = 0, 0
				}
				e.SRPHeld += s.HeldSections()
				e.SRPSections += n
			}
		}
		for _, w := range sm.warps {
			if w.Finished() {
				continue
			}
			e.LiveWarps++
			if w.atBarrier {
				e.AtBarrier++
				continue
			}
			e.Stalled++
			if e.First == nil {
				kern := w.CTA.kern
				pc := w.NextPC()
				instr := "-"
				if pc >= 0 && pc < len(kern.Instrs) {
					instr = kern.Instrs[pc].String()
				}
				e.First = &WarpDiag{
					SM: sm.id, Widx: w.Widx, Kernel: kern.Name,
					PC: pc, Instr: instr, Stack: w.StackDepth(),
				}
			}
		}
	}
	e.Kernel, e.TargetCTAs = d.Kernel.Name, d.Kernel.GridCTAs
	if d.multi() {
		names := make([]string, len(d.kernels))
		for i, k := range d.kernels {
			names[i] = k.Name
		}
		e.Kernel, e.TargetCTAs = strings.Join(names, "+"), d.totalCTAs
	}
	return e
}

func (d *Device) collectStats() Stats {
	st := Stats{Cycles: d.now, CTAs: d.doneCTAs}
	var activeSum, occSum int64
	for _, sm := range d.sms {
		st.Instructions += sm.issued
		st.AcqRelInstructions += sm.acqRelIssued
		st.RFReads += sm.rfReads
		st.RFWrites += sm.rfWrites
		st.OOBAccesses += sm.oobAccesses
		activeSum += sm.cyclesActive
		occSum += sm.occupancySum
		a, s, r := sm.policy.Counters()
		st.AcquireAttempts += a
		st.AcquireSuccesses += s
		st.Releases += r
	}
	if activeSum > 0 {
		st.AvgOccupancyWarps = float64(occSum) / float64(activeSum)
	}
	st.Stall = d.Breakdown()
	st.SchedSlots = st.Stall.Total()
	st.ScoreboardStalls = st.Stall[CauseScoreboard]
	st.MemStalls = st.Stall[CauseMemory]
	st.AcquireStalls = st.Stall[CauseAcquire]
	return st
}

// sample captures the current utilisation snapshot.
func (d *Device) sample() Sample {
	s := Sample{Cycle: d.now}
	for _, sm := range d.sms {
		for _, w := range sm.warps {
			if !w.Finished() {
				s.ResidentWarps++
			}
		}
		if h, ok := sm.policy.(interface{ HeldSections() int }); ok {
			s.HeldSections += h.HeldSections()
		}
	}
	return s
}
