package sim

import (
	"fmt"
	"math"

	"regmutex/internal/isa"
)

// CTAState is one resident CTA on an SM.
type CTAState struct {
	ID     int
	kern   *isa.Kernel
	global []uint64 // the kernel's global memory
	warps  []*Warp
	shared []uint64

	barWaiting int // warps currently parked at the barrier
	doneWarps  int
}

func (c *CTAState) warpBase(w *Warp) int {
	for i, x := range c.warps {
		if x == w {
			return i
		}
	}
	return 0
}

func (c *CTAState) loadShared(addr int64) uint64 {
	if len(c.shared) == 0 {
		return 0
	}
	i := int(addr) % len(c.shared)
	if i < 0 {
		i += len(c.shared)
	}
	return c.shared[i]
}

func (c *CTAState) storeShared(addr int64, v uint64) {
	if len(c.shared) == 0 {
		return
	}
	i := int(addr) % len(c.shared)
	if i < 0 {
		i += len(c.shared)
	}
	c.shared[i] = v
}

// liveWarps returns warps that have not finished.
func (c *CTAState) liveWarps() int { return len(c.warps) - c.doneWarps }

// eventHeap is a typed min-heap of future completion times, used both for
// idle-cycle skipping and in-flight memory accounting. It deliberately
// does not go through container/heap: the interface{} round-trip there
// boxes every int64 push, which on the memory-completion path means an
// allocation per issued load/store.
type eventHeap []int64

// push inserts t, keeping the min-heap property.
func (h *eventHeap) push(t int64) {
	*h = append(*h, t)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// pop removes and returns the minimum. The heap must be non-empty.
func (h *eventHeap) pop() int64 {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r] < s[l] {
			m = r
		}
		if s[i] <= s[m] {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return min
}

// min returns the smallest element without removing it.
func (h eventHeap) min() int64 { return h[0] }

// schedCand is one runnable warp in a scheduler's pick order.
type schedCand struct {
	w    *Warp
	p    int // policy priority (lower runs first)
	rank int // tiebreak: Seq (oldest-first) or rotated Widx (round-robin)
}

// scheduler is one of the SM's warp schedulers (greedy-then-oldest).
type scheduler struct {
	id   int
	last *Warp // greedy: keep issuing from the same warp

	// lastRes is the slot's most recent per-cycle attribution; settleTo
	// multiplies it over cycles the SM slept through.
	lastRes slotResult

	// cands caches the warps mapped to this scheduler (Widx % nsched ==
	// id), rebuilt only when SM warp membership changes (launch/retire);
	// order is the scratch pick list reused every cycle.
	cands   []*Warp
	candGen uint64
	order   []schedCand
}

// rebuildCands refreshes the scheduler's mapped-warp cache from sm.warps
// (which is kept in launch = Seq order).
func (sched *scheduler) rebuildCands(sm *SM) {
	sched.cands = sched.cands[:0]
	n := len(sm.schedulers)
	for _, w := range sm.warps {
		if w.Widx%n == sched.id {
			sched.cands = append(sched.cands, w)
		}
	}
	sched.candGen = sm.warpGen
}

// slotResult is one scheduler slot's attribution for one cycle: the
// cause charged and the warp it was charged to (nil for slot-level
// causes like no-warp/empty).
type slotResult struct {
	cause StallCause
	warp  *Warp
}

// issueOutcome is why one tryIssue attempt did or did not issue.
type issueOutcome int8

const (
	outIssued     issueOutcome = iota
	outSkip                    // finished / at barrier: not a chargeable stall
	outScoreboard              // pending register or predicate writeback
	outSFU                     // SFU port taken this cycle
	outMem                     // global-memory queue full
	outPolicy                  // policy gate refused (acquire-wait)
)

// stallCause maps a failed attempt to its charged cause. Structural
// back-pressure (memory queue, SFU port) folds into CauseMemory.
func (o issueOutcome) stallCause() StallCause {
	switch o {
	case outScoreboard:
		return CauseScoreboard
	case outSFU, outMem:
		return CauseMemory
	case outPolicy:
		return CauseAcquire
	default:
		return causeInvalid
	}
}

// sleepForever marks an SM with no pending events and no policy retries:
// nothing on it can change until a device-level action (CTA launch)
// resets wakeAt.
const sleepForever = int64(math.MaxInt64)

// pendingStore is one buffered global-memory write. Stores commit at the
// end of the cycle, in SM order (see DESIGN.md §11): during a cycle every
// load reads the cycle-start state, which is what makes the parallel
// engine's results independent of worker count.
type pendingStore struct {
	mem  []uint64
	addr int64
	val  uint64
}

// obsRec is one buffered observer callback (parallel engine only): either
// a coarse Event or a per-slot StallSlot, preserving within-SM order.
type obsRec struct {
	isEvent bool
	ev      Event
	slot    StallSlot
}

// SM is one streaming multiprocessor.
type SM struct {
	dev *Device
	id  int

	ctas       []*CTAState
	warps      []*Warp // all resident warps, in launch (Seq) order
	slots      []bool  // warp slot occupancy, index = Widx
	schedulers []scheduler

	policy PolicyState

	memInFlight  int
	memComplete  eventHeap // completion times of outstanding global requests
	wakeups      eventHeap // scoreboard writeback times (idle skipping)
	sfuThisCycle int

	// warpGen bumps whenever warp membership changes (CTA launch or
	// retire); schedulers rebuild their mapped-warp caches lazily on it.
	warpGen uint64

	// wakeAt is the next cycle this SM must step. An SM that issued
	// nothing, saw no policy-gate retry, and has no pending event sleeps
	// until its next scoreboard/memory event (or forever, until a device
	// action wakes it); slept cycles are charged lazily by settleTo.
	wakeAt         int64
	chargedThrough int64 // stall attribution is complete for cycles < chargedThrough
	sawPolicyBlock bool  // a policy gate refused issue this cycle (acquire retry)

	// pendingRetire holds CTAs whose last warp finished this cycle;
	// retirement and backfill run at the cycle-end barrier in SM order so
	// the dispatcher's global counters stay deterministic at any -par.
	pendingRetire []*CTAState

	// stores buffers this cycle's global-memory writes (committed at the
	// cycle-end barrier in SM order).
	stores []pendingStore

	// obsBuf, when buffered is set (parallel engine with an observer
	// attached), collects this cycle's observer callbacks for in-order
	// replay at the barrier.
	buffered bool
	obsBuf   []obsRec

	// Stats.
	issued        int64
	acqRelIssued  int64 // ACQ/REL primitives among issued (differential runs subtract these)
	cyclesActive  int64
	warpsLaunched int64
	occupancySum  int64 // resident warps integrated over active cycles
	rfReads       int64 // register file row reads (warp-wide)
	rfWrites      int64 // register file row writes
	oobAccesses   int64 // out-of-bounds global accesses (per-SM for determinism)
	warpsRetired  int64

	// stalls is the SM's per-cause scheduler-slot attribution: exactly
	// one cause per scheduler per stepped cycle (slept cycles charged
	// in bulk), so its sum is always cycles × SchedulersPerSM.
	stalls StallBreakdown
}

func newSM(dev *Device, id int) *SM {
	sm := &SM{dev: dev, id: id}
	sm.slots = make([]bool, dev.Config.MaxWarpsPerSM)
	for s := 0; s < dev.Config.SchedulersPerSM; s++ {
		sm.schedulers = append(sm.schedulers, scheduler{id: s})
	}
	return sm
}

// freeSlots returns how many warp slots are unoccupied.
func (sm *SM) freeSlots() int {
	n := 0
	for _, used := range sm.slots {
		if !used {
			n++
		}
	}
	return n
}

// launchCTA places a CTA of the device's (single) kernel onto the SM.
func (sm *SM) launchCTA(id int) {
	sm.launchCTAOf(sm.dev.Kernel, 0, id)
}

// launchCTAOf places a CTA of an arbitrary kernel onto the SM (the
// multi-kernel path; kidx selects its global memory).
func (sm *SM) launchCTAOf(k *isa.Kernel, kidx, id int) {
	if sm.freeSlots() < k.WarpsPerCTA() {
		sm.dev.fail(fmt.Errorf("sim: SM%d: %w for CTA %d of kernel %s (%d free, %d needed)",
			sm.id, ErrNoWarpSlot, id, k.Name, sm.freeSlots(), k.WarpsPerCTA()))
		return
	}
	cta := &CTAState{ID: id, kern: k, global: sm.dev.GlobalOf(kidx)}
	if k.SharedMemWords > 0 {
		cta.shared = make([]uint64, k.SharedMemWords)
	}
	threads := k.ThreadsPerCTA
	for wi := 0; wi < k.WarpsPerCTA(); wi++ {
		lanes := threads - wi*isa.WarpSize
		if lanes > isa.WarpSize {
			lanes = isa.WarpSize
		}
		widx := sm.takeSlot()
		if widx < 0 {
			return
		}
		w := newWarp(k, int(sm.dev.warpSeq), widx, cta, lanes)
		sm.dev.warpSeq++
		cta.warps = append(cta.warps, w)
		sm.warps = append(sm.warps, w)
		sm.warpsLaunched++
	}
	sm.ctas = append(sm.ctas, cta)
	sm.warpGen++
	sm.policy.OnCTALaunch(cta)
}

func (sm *SM) takeSlot() int {
	for i, used := range sm.slots {
		if !used {
			sm.slots[i] = true
			return i
		}
	}
	// Residency accounting should prevent this; latch a typed error the
	// device surfaces from Run (or New) instead of panicking.
	sm.dev.fail(fmt.Errorf("sim: SM%d: %w with %d warps resident", sm.id, ErrNoWarpSlot, len(sm.warps)))
	return -1
}

// retireCTA frees a finished CTA's resources. Both removals preserve
// order in place (sm.warps must stay Seq-sorted for the schedulers) and
// nil out the vacated tail so retired CTAs and warps are collectable
// instead of pinned by the reused backing arrays.
func (sm *SM) retireCTA(cta *CTAState) {
	for _, w := range cta.warps {
		sm.slots[w.Widx] = false
	}
	for i, c := range sm.ctas {
		if c == cta {
			copy(sm.ctas[i:], sm.ctas[i+1:])
			sm.ctas[len(sm.ctas)-1] = nil
			sm.ctas = sm.ctas[:len(sm.ctas)-1]
			break
		}
	}
	live := sm.warps[:0]
	for _, w := range sm.warps {
		if w.CTA != cta {
			live = append(live, w)
		}
	}
	for i := len(live); i < len(sm.warps); i++ {
		sm.warps[i] = nil
	}
	sm.warps = live
	sm.warpGen++
	sm.policy.OnCTARetire(cta)
}

// residentWarps returns the number of warps currently on the SM.
func (sm *SM) residentWarps() int { return len(sm.warps) }

// drainMemCompletions retires finished global requests.
func (sm *SM) drainMemCompletions(now int64) {
	for len(sm.memComplete) > 0 && sm.memComplete.min() <= now {
		sm.memComplete.pop()
		sm.memInFlight--
	}
}

// nextEvent returns the earliest future time anything changes on this SM,
// or -1 if nothing is pending.
func (sm *SM) nextEvent(now int64) int64 {
	next := int64(-1)
	if len(sm.memComplete) > 0 {
		if t := sm.memComplete.min(); t > now {
			next = t
		}
	}
	for len(sm.wakeups) > 0 && sm.wakeups.min() <= now {
		sm.wakeups.pop()
	}
	if len(sm.wakeups) > 0 {
		if t := sm.wakeups.min(); next < 0 || t < next {
			next = t
		}
	}
	return next
}

// loadGlobal reads kernel global memory. Loads always observe the
// cycle-start state: stores from the same cycle are still in the buffer.
func (sm *SM) loadGlobal(mem []uint64, addr int64) uint64 {
	n := int64(len(mem))
	if addr < 0 || addr >= n {
		sm.oobAccesses++
		if n == 0 {
			// Empty global segment: every access is out of bounds; loads
			// read a deterministic zero instead of dividing by zero below.
			return 0
		}
		addr = ((addr % n) + n) % n
	}
	return mem[addr]
}

// storeGlobal buffers a global-memory write; it commits at the cycle-end
// barrier in SM order (applyStores).
func (sm *SM) storeGlobal(mem []uint64, addr int64, v uint64) {
	sm.stores = append(sm.stores, pendingStore{mem: mem, addr: addr, val: v})
}

// applyStores commits the cycle's buffered global writes. Out-of-bounds
// accounting happens here (not at issue) so the count lands on the SM
// that issued the store regardless of engine.
func (sm *SM) applyStores() {
	for _, st := range sm.stores {
		n := int64(len(st.mem))
		addr := st.addr
		if addr < 0 || addr >= n {
			sm.oobAccesses++
			if n == 0 {
				continue // empty segment: drop the store (counted above)
			}
			addr = ((addr % n) + n) % n
		}
		st.mem[addr] = st.val
	}
	sm.stores = sm.stores[:0]
}

// emitEvent routes an SM-side event to the observer: directly in the
// serial engine, via the per-SM buffer (replayed at the barrier in SM
// order) in the parallel engine.
func (sm *SM) emitEvent(ev Event) {
	if sm.buffered {
		sm.obsBuf = append(sm.obsBuf, obsRec{isEvent: true, ev: ev})
		return
	}
	sm.dev.emit(ev)
}

// settleTo charges each scheduler slot's last attribution over the cycles
// the SM slept through (nothing steps while the SM sleeps, so the causes
// cannot change). This keeps the conservation law — stalls sum to
// cycles × SchedulersPerSM — intact at every point the audit layer or
// collectStats can observe.
func (sm *SM) settleTo(now int64) {
	n := now - sm.chargedThrough
	if n <= 0 {
		return
	}
	for s := range sm.schedulers {
		res := sm.schedulers[s].lastRes
		sm.stalls[res.cause] += n
		if res.warp != nil {
			res.warp.Stalls[res.cause] += n
		}
	}
	sm.chargedThrough = now
}

// step advances the SM by one cycle; returns the number of instructions
// issued. Every scheduler slot is charged to exactly one StallCause per
// step (the per-cycle attribution the observability layer is built on).
func (sm *SM) step(now int64) int {
	sm.settleTo(now)
	sm.drainMemCompletions(now)
	sm.sfuThisCycle = 0
	sm.sawPolicyBlock = false
	issued := 0
	obs := sm.dev.obs
	for s := range sm.schedulers {
		sched := &sm.schedulers[s]
		res := sm.issueSlot(sched, now)
		sched.lastRes = res
		sm.stalls[res.cause]++
		if res.warp != nil {
			res.warp.Stalls[res.cause]++
		}
		if res.cause == CauseIssued {
			issued++
		}
		if obs != nil {
			slot := StallSlot{Cycle: now, SM: sm.id, Scheduler: sched.id,
				Cause: res.cause, Warp: res.warp}
			if sm.buffered {
				sm.obsBuf = append(sm.obsBuf, obsRec{slot: slot})
			} else {
				obs.OnStall(slot)
			}
		}
	}
	if len(sm.warps) > 0 {
		sm.cyclesActive++
		sm.occupancySum += int64(len(sm.warps))
	}
	sm.issued += int64(issued)
	sm.chargedThrough = now + 1
	// Decide when this SM must step again. A policy-gate refusal means a
	// warp retries its acquire every cycle (the retry itself is modelled
	// state: attempt counters and the livelock watchdog), so the SM stays
	// awake; otherwise it can sleep until its next scoreboard or memory
	// event without any observable difference.
	switch {
	case issued > 0 || sm.sawPolicyBlock:
		sm.wakeAt = now + 1
	default:
		if t := sm.nextEvent(now); t >= 0 {
			sm.wakeAt = t
		} else {
			sm.wakeAt = sleepForever
		}
	}
	return issued
}

// issueSlot lets one scheduler pick and issue at most one instruction
// and returns the slot's attribution for this cycle. When nothing
// issues, the charge goes to the first candidate the scheduler tried
// (the warp it most wanted to run) with that warp's first blocking
// hazard; slots with no runnable candidate classify as barrier,
// no-warp, or empty.
func (sm *SM) issueSlot(sched *scheduler, now int64) slotResult {
	rr := sm.dev.Timing.LooseRoundRobin
	if rr {
		sched.last = nil // round-robin: no greedy stickiness
	}
	if sched.last != nil && sched.last.Finished() {
		// A finished warp's slot may already belong to a fresh warp;
		// keeping it greedy would shadow that warp in the pick list.
		sched.last = nil
	}
	last := sched.last
	charged := slotResult{cause: causeInvalid}
	if last != nil {
		out := sm.tryIssue(last, now)
		if out == outIssued {
			return slotResult{cause: CauseIssued, warp: last}
		}
		if c := out.stallCause(); c != causeInvalid {
			charged = slotResult{cause: c, warp: last}
		}
	}
	if sched.candGen != sm.warpGen {
		sched.rebuildCands(sm)
	}
	// Build the pick order: one pass over the mapped warps collecting
	// (priority, rank); the list is already in Seq order, so the common
	// all-equal-priority case needs no sort at all. Priorities cannot
	// change while a scan fails (only successful issues mutate policy
	// state), so a single fetch per warp is exact.
	order := sched.order[:0]
	needSort := false
	for _, w := range sched.cands {
		if w == last || w.finished || w.atBarrier {
			continue
		}
		p := sm.policy.Priority(w)
		rank := w.Seq
		if rr {
			max := sm.dev.Config.MaxWarpsPerSM
			rank = (w.Widx - int(now)%max + max) % max
		}
		if n := len(order); n > 0 {
			if prev := &order[n-1]; p < prev.p || (p == prev.p && rank < prev.rank) {
				needSort = true
			}
		}
		order = append(order, schedCand{w: w, p: p, rank: rank})
	}
	sched.order = order
	if needSort {
		for i := 1; i < len(order); i++ {
			c := order[i]
			j := i - 1
			for j >= 0 && (order[j].p > c.p || (order[j].p == c.p && order[j].rank > c.rank)) {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = c
		}
	}
	for i := range order {
		w := order[i].w
		if w.blockedUntil > now {
			// Scoreboard-blocked until a known future cycle: charge
			// without re-decoding the instruction. The cached bound is
			// conservative (fault injection only delays writebacks), so
			// an expired bound is simply recomputed by tryIssue.
			if charged.cause == causeInvalid {
				charged = slotResult{cause: CauseScoreboard, warp: w}
			}
			continue
		}
		out := sm.tryIssue(w, now)
		if out == outIssued {
			sched.last = w
			return slotResult{cause: CauseIssued, warp: w}
		}
		if charged.cause == causeInvalid {
			if c := out.stallCause(); c != causeInvalid {
				charged = slotResult{cause: c, warp: w}
			}
		}
	}
	if charged.cause != causeInvalid {
		return charged
	}
	return sm.classifyIdleSlot(sched)
}

// classifyIdleSlot attributes a slot that had no blocked candidate:
// the SM is empty, every mapped live warp is parked at a barrier, or no
// live warp maps to the scheduler at all.
func (sm *SM) classifyIdleSlot(sched *scheduler) slotResult {
	if len(sm.warps) == 0 {
		return slotResult{cause: CauseEmpty}
	}
	for _, w := range sched.cands {
		if w.Finished() {
			continue
		}
		if w.atBarrier {
			return slotResult{cause: CauseBarrier, warp: w}
		}
	}
	return slotResult{cause: CauseNoWarp}
}

// tryIssue attempts to issue w's next instruction at cycle now and
// reports the outcome: issued, skipped (not a chargeable stall), or the
// first hazard that blocked the warp. Per-warp stall counters are NOT
// bumped here — the charging site in step charges exactly one warp per
// scheduler slot per cycle.
func (sm *SM) tryIssue(w *Warp, now int64) issueOutcome {
	if w.Finished() || w.atBarrier {
		return outSkip
	}
	pc := w.NextPC()
	if pc < 0 {
		sm.onWarpFinished(w)
		return outSkip
	}
	in := &w.CTA.kern.Instrs[pc]

	if t := w.scoreboardReadyAt(in); t > now {
		w.blockedUntil = t
		return outScoreboard
	}
	// Structural hazards.
	switch isa.ClassOf(in.Op) {
	case isa.ClassSFU:
		if sm.sfuThisCycle >= sm.dev.Timing.SFUPortsPerSM {
			return outSFU
		}
	case isa.ClassMem:
		if in.Op == isa.OpLdGlobal || in.Op == isa.OpStGlobal {
			if sm.memInFlight >= sm.dev.Timing.MaxInFlightMem {
				return outMem
			}
		}
	}
	// Policy gate (acquire/release, OWF locks, RFV allocation).
	if !sm.policy.TryIssue(w, in, now) {
		sm.sawPolicyBlock = true
		return outPolicy
	}

	// Commit: the instruction issues this cycle.
	active := w.activeMask()
	exec := w.guardMask(in, active)
	if in.Op == isa.OpSelp {
		exec = active // guard is a selector, not an execution filter
	}

	switch in.Op {
	case isa.OpBarSync:
		w.advance(in, pc, active, 0)
		sm.arriveBarrier(w)
	case isa.OpExit:
		w.exitLanes(exec)
		w.advance(in, pc, active, 0)
		if w.top() == nil {
			sm.onWarpFinished(w)
		}
	default:
		taken := sm.execute(w, in, pc, exec)
		lat := sm.dev.Timing.latency(in.Op)
		w.markWrite(in, now+lat)
		if isa.HasDst(in.Op) || in.Op == isa.OpSetp || in.Op == isa.OpSetpF {
			sm.wakeups.push(now + lat)
		}
		if in.Op == isa.OpLdGlobal || in.Op == isa.OpStGlobal {
			sm.memInFlight++
			sm.memComplete.push(now + lat)
		}
		if in.Op == isa.OpBra {
			// taken = guard-true lanes; everyone else in the active
			// mask falls through.
			w.advance(in, pc, active, taken)
		} else {
			w.advance(in, pc, active, 0)
		}
		if isa.ClassOf(in.Op) == isa.ClassSFU {
			sm.sfuThisCycle++
		}
	}

	// Register file traffic accounting (warp-row granularity, the unit
	// the energy model charges).
	for si := 0; si < isa.NumSrcs(in.Op); si++ {
		if in.Srcs[si].Kind == isa.OpndReg {
			sm.rfReads++
		}
	}
	if isa.HasDst(in.Op) {
		sm.rfWrites++
	}

	if in.Op == isa.OpAcq || in.Op == isa.OpRel {
		sm.acqRelIssued++
	}
	w.Issued++
	sm.policy.OnIssued(w, in, now)
	if w.top() == nil {
		sm.onWarpFinished(w)
	}
	return outIssued
}

// arriveBarrier parks w until all live warps of its CTA arrive.
func (sm *SM) arriveBarrier(w *Warp) {
	cta := w.CTA
	w.atBarrier = true
	cta.barWaiting++
	if cta.barWaiting >= cta.liveWarps() {
		for _, x := range cta.warps {
			x.atBarrier = false
		}
		cta.barWaiting = 0
	}
}

// onWarpFinished handles warp completion. CTA retirement is deferred to
// the cycle-end barrier (Device.finishCycle) so the dispatcher's global
// state — nextCTA, doneCTAs, the multi-kernel rotation — is only touched
// in fixed SM order, which is what keeps Stats identical at any -par.
func (sm *SM) onWarpFinished(w *Warp) {
	if w.retired {
		return
	}
	w.retired = true
	w.finished = true
	sm.warpsRetired++
	sm.policy.OnWarpExit(w)
	cta := w.CTA
	cta.doneWarps++
	// A warp that exits while others wait at a barrier could strand
	// them; kernels are barrier-uniform, but release defensively.
	if cta.barWaiting >= cta.liveWarps() && cta.liveWarps() > 0 {
		for _, x := range cta.warps {
			if !x.Finished() {
				x.atBarrier = false
			}
		}
		cta.barWaiting = 0
	}
	if cta.doneWarps == len(cta.warps) {
		sm.pendingRetire = append(sm.pendingRetire, cta)
	}
}
