package sim

import (
	"context"
	"slices"
	"sort"
	"strings"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// Device is the whole GPU: SMs, global memory, and the CTA dispatcher.
type Device struct {
	Config occupancy.Config
	Timing Timing
	Policy Policy

	// Kernel and Global are the first grid's kernel and memory: a
	// single-kernel device's only ones.
	Kernel *isa.Kernel
	Global []uint64
	sms    []*SM

	// grids are the kernels the dispatcher launches (one for New, one per
	// co-scheduled kernel for NewMultiDevice); rr is the grid whose turn
	// it is, and targetCTAs the CTAs of every grid together.
	grids      []grid
	rr         int
	targetCTAs int
	// fits reports whether sm has room for one more CTA of k: the
	// policy's residency for New, canHost for NewMultiDevice.
	fits func(sm *SM, k *isa.Kernel) bool

	doneCTAs int
	warpSeq  int64
	now      int64

	// snapEpoch tags the forward-progress watchdog's per-warp snapshots
	// (see markWarpProgress); it replaces the per-check map allocation.
	snapEpoch uint64

	// fatalErr latches the first unrecoverable machine error (e.g. a
	// warp-slot accounting violation); Run surfaces it.
	fatalErr error

	// audit, when non-nil, is consulted every cycle and at kernel end;
	// a returned error aborts the run (see WithAudit).
	audit AuditHook

	// sampleEvery spaces the utilisation samples delivered to the
	// attached Observer's OnCycleSample (see WithSampleInterval).
	sampleEvery int64
	nextSample  int64

	// obs is the attached Observer (nil when detached); set via
	// WithObserver so it sees the initial CTA wave.
	obs Observer

	// code caches each launched kernel's issue table (decodedOf).
	code map[*isa.Kernel][]decoded
}

// grid is one kernel's launch state: the kernel, its global memory, and
// the next of its CTAs to launch.
type grid struct {
	kern   *isa.Kernel
	global []uint64
	next   int
}

// decodedOf returns k's issue table, decoding k the first time one of its
// CTAs launches.
func (d *Device) decodedOf(k *isa.Kernel) []decoded {
	code, ok := d.code[k]
	if !ok {
		if d.code == nil {
			d.code = make(map[*isa.Kernel][]decoded)
		}
		code = decodeKernel(k, d.Timing)
		d.code[k] = code
	}
	return code
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
// from the CTA launch and retire paths.
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

// onCTAComplete runs at cycle end (finishCycle) for each CTA that retired
// this cycle (in SM order); the dispatcher backfills the SM that freed
// the slots.
func (d *Device) onCTAComplete(sm *SM, cta *CTAState) {
	d.doneCTAs++
	d.emit(Event{Cycle: d.now, SM: sm.id, Kind: "cta-retire", Data: cta.ID})
	for d.backfill(sm) {
	}
}

// backfill launches at most one pending CTA onto sm, rotating over the
// grids, and reports whether anything launched. The rotation index only
// advances past a grid when it launches, so a grid that was merely
// skipped (drained, no room) keeps its turn and rr stays within
// [0, len(grids)).
func (d *Device) backfill(sm *SM) bool {
	for n := range d.grids {
		gi := (d.rr + n) % len(d.grids)
		g := &d.grids[gi]
		if g.next >= g.kern.GridCTAs || !d.fits(sm, g.kern) {
			continue
		}
		sm.launchCTA(g)
		d.emit(Event{Cycle: d.now, SM: sm.id, Kind: "cta-launch", Data: g.next})
		g.next++
		d.rr = (gi + 1) % len(d.grids)
		return true
	}
	return false
}

// GlobalOf returns kernel i's global memory (i = the kernel's position in
// the NewMultiDevice slice; 0 for single-kernel devices).
func (d *Device) GlobalOf(i int) []uint64 { return d.grids[i].global }

// kernelNames names the device's kernels for diagnostics, joined by "+"
// on a co-scheduled device.
func (d *Device) kernelNames() string {
	names := make([]string, len(d.grids))
	for i, g := range d.grids {
		names[i] = g.kern.Name
	}
	return strings.Join(names, "+")
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

// statFuncs is the one vocabulary of Stats measures: hypothesis specs
// name them and obs.RecordStats publishes them all. Derived measures
// (ipc, user_instructions, stall_frac.<cause>) are computed here, so no
// consumer needs arithmetic.
var statFuncs = map[string]func(Stats) float64{
	"cycles":               func(s Stats) float64 { return float64(s.Cycles) },
	"instructions":         func(s Stats) float64 { return float64(s.Instructions) },
	"user_instructions":    func(s Stats) float64 { return float64(s.Instructions - s.AcqRelInstructions) },
	"ctas":                 func(s Stats) float64 { return float64(s.CTAs) },
	"avg_occupancy_warps":  func(s Stats) float64 { return s.AvgOccupancyWarps },
	"acquire_attempts":     func(s Stats) float64 { return float64(s.AcquireAttempts) },
	"acquire_successes":    func(s Stats) float64 { return float64(s.AcquireSuccesses) },
	"acquire_success_rate": Stats.AcquireSuccessRate,
	"releases":             func(s Stats) float64 { return float64(s.Releases) },
	"rf_reads":             func(s Stats) float64 { return float64(s.RFReads) },
	"rf_writes":            func(s Stats) float64 { return float64(s.RFWrites) },
	"sched_slots":          func(s Stats) float64 { return float64(s.SchedSlots) },
	"oob_accesses":         func(s Stats) float64 { return float64(s.OOBAccesses) },
	"ipc":                  func(s Stats) float64 { return ratio(s.Instructions, s.Cycles) },
}

// statNames is statFuncs' keys, sorted.
var statNames []string

func init() {
	// stall.<cause> (slot-cycles) and stall_frac.<cause> (share of the
	// scheduler slots) for every attribution cause, "issued" included.
	for _, c := range StallCauses() {
		statFuncs["stall."+c.String()] = func(s Stats) float64 { return float64(s.Stall[c]) }
		statFuncs["stall_frac."+c.String()] = func(s Stats) float64 { return ratio(s.Stall[c], s.SchedSlots) }
	}
	for name := range statFuncs {
		statNames = append(statNames, name)
	}
	sort.Strings(statNames)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// StatNames lists every measure Stats.Value knows, sorted.
func StatNames() []string { return slices.Clone(statNames) }

// Value returns the named measure of s; ok is false when StatNames does
// not list the name.
func (s Stats) Value(name string) (v float64, ok bool) {
	f, ok := statFuncs[name]
	if !ok {
		return 0, false
	}
	return f(s), true
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

// finishCycle ends a cycle. The cycle's global effects are applied here
// in fixed SM order, after every due SM has stepped: stores commit, then
// finished CTAs retire and backfill. This is the cycle semantics the
// paper golden pins (DESIGN.md §11): during a cycle every load reads the
// cycle-start memory, and a slot freed on one SM is not visible to later
// SMs until the next cycle.
func (d *Device) finishCycle() {
	for _, sm := range d.sms {
		if len(sm.stores) > 0 {
			sm.applyStores()
		}
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
// the old whole-device fast-forward. The due SMs of each cycle step in
// SM order, then finishCycle applies the cycle's global effects.
func (d *Device) RunContext(ctx context.Context) (Stats, error) {
	idleThr := orDefault(d.Timing.IdleDeadlockThreshold, DefaultIdleDeadlockThreshold)
	epoch := orDefault(d.Timing.ProgressEpoch, DefaultProgressEpoch)
	livelockEpochs := orDefault(d.Timing.LivelockEpochs, DefaultLivelockEpochs)

	cancelable := ctx.Done() != nil
	ctxCountdown := 0
	idle := int64(0)
	staleEpochs := 0
	nextEpoch := d.now + epoch
	prev := d.progressTotals()
	d.markWarpProgress()
	for d.doneCTAs < d.targetCTAs {
		if cancelable {
			if ctxCountdown--; ctxCountdown <= 0 {
				if err := ctx.Err(); err != nil {
					return Stats{}, &CanceledError{
						Kernel: d.kernelNames(), Policy: d.Policy.Name(),
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
		if d.audit != nil {
			d.settleAll()
			if err := d.audit.CheckCycle(d, d.now); err != nil {
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
			d.nextSample = d.now + d.sampleEvery
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
		for _, sm := range d.sms {
			if sm.wakeAt <= d.now {
				sm.step(d.now)
			}
		}
		d.finishCycle()
		d.now++
	}
	if d.fatalErr != nil {
		return Stats{}, d.fatalErr
	}
	d.settleAll()
	if d.audit != nil {
		if err := d.audit.CheckEnd(d); err != nil {
			return Stats{}, err
		}
	}
	return d.collectStats(), nil
}

// orDefault is v, or def when v is not positive.
func orDefault[T int | int64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// wedgeError builds the structured *DeadlockError diagnostic. On a
// co-scheduled device each warp may belong to a different kernel, so the
// stalled instruction is decoded against the warp's own kernel and the
// CTA target is the combined grid. The snapshot includes current SRP
// occupancy when the policy exposes one.
func (d *Device) wedgeError(kind WedgeKind) *DeadlockError {
	e := &DeadlockError{
		Kind:        kind,
		Kernel:      d.kernelNames(),
		Policy:      d.Policy.Name(),
		Cycle:       d.now,
		DoneCTAs:    d.doneCTAs,
		TargetCTAs:  d.targetCTAs,
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
