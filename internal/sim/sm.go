package sim

import (
	"fmt"
	"math"
	"math/bits"

	"regmutex/internal/isa"
)

// CTAState is one resident CTA on an SM.
type CTAState struct {
	ID     int
	kern   *isa.Kernel
	code   []decoded // kern's issue table, one entry per instruction
	global []uint64  // the kernel's global memory
	warps  []*Warp
	shared []uint64

	barWaiting int // warps currently parked at the barrier
	doneWarps  int
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

// wheel is a calendar of future event cycles: an event count per cycle
// slot plus a bitmap of the nonzero slots. Its span is a power of two
// above every issue-to-writeback latency, so every live event lies in
// [base, base+span) and its slot is its cycle mod span. Slots of cycles
// before base are zero; a push that would alias one of them first clears
// the cycles it overtakes, so stale events never shadow fresh ones.
// Push, expire and next cost O(span/64) words at most and allocate
// nothing.
type wheel struct {
	counts []int32
	nz     []uint64 // bit i set iff counts[i] > 0
	mask   int64    // span - 1
	base   int64    // earliest cycle a counted event can be at
}

// newWheel sizes a wheel for events at most maxLatency cycles ahead.
func newWheel(maxLatency int64) wheel {
	span := int64(64)
	for span <= maxLatency {
		span <<= 1
	}
	return wheel{counts: make([]int32, span), nz: make([]uint64, span/64), mask: span - 1}
}

// push records one event at cycle t. An event before base (a zero
// latency) lands at base. Events more than a span before t are dropped:
// callers either expire the wheel before pushing (memory completions) or
// only ask for events after the current cycle (writebacks).
func (wh *wheel) push(t int64) {
	if t < wh.base {
		t = wh.base
	}
	if t-wh.base > wh.mask {
		wh.expire(t - wh.mask - 1)
	}
	i := t & wh.mask
	wh.counts[i]++
	wh.nz[i>>6] |= 1 << uint(i&63)
}

// expire removes every event at a cycle <= now and returns how many
// there were.
func (wh *wheel) expire(now int64) int {
	if now < wh.base {
		return 0
	}
	if now == wh.base {
		// One cycle, the common step: clear its slot alone.
		i := now & wh.mask
		n := int(wh.counts[i])
		wh.counts[i] = 0
		wh.nz[i>>6] &^= 1 << uint(i&63)
		wh.base++
		return n
	}
	n := 0
	end := min(now, wh.base+wh.mask) // one span past base covers every slot
	for c := wh.base; c <= end; {
		i := c & wh.mask
		bit := i & 63
		k := min(64-bit, end-c+1)
		m := ^uint64(0) >> uint(64-k) << uint(bit)
		word := &wh.nz[i>>6]
		for set := *word & m; set != 0; set &= set - 1 {
			j := i&^63 + int64(bits.TrailingZeros64(set))
			n += int(wh.counts[j])
			wh.counts[j] = 0
		}
		*word &^= m
		c += k
	}
	wh.base = now + 1
	return n
}

// next returns the earliest counted event cycle, or -1 when the wheel is
// empty.
func (wh *wheel) next() int64 {
	start := wh.base & wh.mask
	w0 := int(start >> 6)
	if x := wh.nz[w0] >> uint(start&63); x != 0 {
		return wh.base + int64(bits.TrailingZeros64(x))
	}
	for k := 1; k <= len(wh.nz); k++ {
		w := (w0 + k) % len(wh.nz)
		if x := wh.nz[w]; x != 0 {
			i := int64(w)<<6 + int64(bits.TrailingZeros64(x))
			return wh.base + (i-start)&wh.mask
		}
	}
	return -1
}

// scheduler is one of the SM's warp schedulers (greedy-then-oldest).
type scheduler struct {
	id   int
	last *Warp // greedy: keep issuing from the same warp

	// lastRes is the slot's most recent per-cycle attribution; settleTo
	// multiplies it over cycles the SM slept through.
	lastRes slotResult

	// order is the scheduler's pick list: the warps mapped to it (Widx %
	// nsched == id) sorted by (policy Priority, rank). It is rebuilt only
	// when sm.orderGen moves past orderGen, or every cycle under
	// LooseRoundRobin, whose rank rotates with the cycle.
	order    []*Warp
	orderGen uint64
	orderAt  int64

	// until is the walk's dense view of order: until[i] is order[i]'s
	// walkUntil, so the walk skips parked and scoreboard-blocked warps
	// without loading them. SM.syncWalk keeps it current wherever a
	// warp's finished, atBarrier or blockedUntil changes.
	until []int64
}

// parked marks a finished warp, or one waiting at a barrier, in a
// scheduler's walk state: never a candidate, never charged.
const parked = int64(math.MaxInt64)

// rank is w's tiebreak within one priority: launch order (oldest
// first), or under loose round-robin the slot index rotated by the
// cycle.
func (sm *SM) rank(w *Warp, now int64) int {
	if !sm.dev.Timing.LooseRoundRobin {
		return w.Seq
	}
	max := sm.dev.Config.MaxWarpsPerSM
	return (w.Widx - int(now)%max + max) % max
}

// rebuildOrder refreshes the scheduler's pick list from sm.warps, which
// is kept in launch (Seq) order, so the common all-equal-priority
// greedy-then-oldest case is already sorted and the insertion sort does
// no moves.
func (sched *scheduler) rebuildOrder(sm *SM, now int64) {
	order := sched.order[:0]
	n := len(sm.schedulers)
	for _, w := range sm.warps {
		if w.Widx%n == sched.id {
			order = append(order, w)
		}
	}
	less := func(a, b *Warp) bool {
		pa, pb := sm.policy.Priority(a), sm.policy.Priority(b)
		return pa < pb || (pa == pb && sm.rank(a, now) < sm.rank(b, now))
	}
	for i := 1; i < len(order); i++ {
		w := order[i]
		j := i - 1
		for ; j >= 0 && less(w, order[j]); j-- {
			order[j+1] = order[j]
		}
		order[j+1] = w
	}
	until := sched.until[:0]
	for i, w := range order {
		w.orderPos = i
		until = append(until, w.walkUntil())
	}
	sched.order, sched.until = order, until
	sched.orderGen = sm.orderGen
	sched.orderAt = now
}

// syncWalk copies w's walk facts into its scheduler's dense walk state.
// A warp launched since the scheduler's last rebuild has no entry yet;
// the rebuild that adds it reads its facts.
func (sm *SM) syncWalk(w *Warp) {
	sched := &sm.schedulers[w.sched]
	if i := w.orderPos; i < len(sched.order) && sched.order[i] == w {
		sched.until[i] = w.walkUntil()
	}
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

// pendingStore is one deferred global-memory write. Stores commit at the
// end of the cycle, in SM order (see DESIGN.md §11): during a cycle every
// load reads the cycle-start state.
type pendingStore struct {
	mem  []uint64
	addr int64
	val  uint64
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
	memComplete  wheel // completion times of outstanding global requests
	wakeups      wheel // scoreboard writeback times (idle skipping)
	sfuThisCycle int

	// orderGen bumps whenever the schedulers' pick order can change: warp
	// membership (CTA launch or retire) or a policy priority (an OWF
	// owner taken or dropped). Schedulers rebuild their order lazily on
	// it, at their next slot.
	orderGen uint64

	// wakeAt is the next cycle this SM must step. An SM that issued
	// nothing, saw no policy-gate retry, and has no pending event sleeps
	// until its next scoreboard/memory event (or forever, until a device
	// action wakes it); slept cycles are charged lazily by settleTo.
	wakeAt         int64
	chargedThrough int64 // stall attribution is complete for cycles < chargedThrough
	sawPolicyBlock bool  // a policy gate refused issue this cycle (acquire retry)

	// pendingRetire holds CTAs whose last warp finished this cycle;
	// retirement and backfill run at cycle end (Device.finishCycle) in SM
	// order.
	pendingRetire []*CTAState

	// stores holds this cycle's global-memory writes (committed at cycle
	// end in SM order).
	stores []pendingStore

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
	sm.memComplete = newWheel(dev.Timing.MaxLatency())
	sm.wakeups = newWheel(dev.Timing.MaxLatency())
	// Each scheduler's pick list holds at most its share of the slots.
	nsched := dev.Config.SchedulersPerSM
	per := (dev.Config.MaxWarpsPerSM + nsched - 1) / max(nsched, 1)
	for s := 0; s < nsched; s++ {
		sm.schedulers = append(sm.schedulers, scheduler{id: s,
			order: make([]*Warp, 0, per), until: make([]int64, 0, per)})
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

// launchCTA places g's next CTA onto the SM.
func (sm *SM) launchCTA(g *grid) {
	k, id := g.kern, g.next
	if sm.freeSlots() < k.WarpsPerCTA() {
		sm.dev.fail(fmt.Errorf("sim: SM%d: %w for CTA %d of kernel %s (%d free, %d needed)",
			sm.id, ErrNoWarpSlot, id, k.Name, sm.freeSlots(), k.WarpsPerCTA()))
		return
	}
	cta := &CTAState{ID: id, kern: k, code: sm.dev.decodedOf(k), global: g.global}
	if k.SharedMemWords > 0 {
		cta.shared = make([]uint64, k.SharedMemWords)
	}
	for wi := 0; wi < k.WarpsPerCTA(); wi++ {
		lanes := min(k.ThreadsPerCTA-wi*isa.WarpSize, isa.WarpSize)
		widx := sm.takeSlot()
		if widx < 0 {
			return
		}
		w := newWarp(k, int(sm.dev.warpSeq), widx, cta, wi, lanes)
		w.sched = widx % len(sm.schedulers)
		sm.dev.warpSeq++
		cta.warps = append(cta.warps, w)
		sm.warps = append(sm.warps, w)
		sm.warpsLaunched++
	}
	sm.ctas = append(sm.ctas, cta)
	sm.orderGen++
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
	sm.orderGen++
}

// drainMemCompletions retires finished global requests.
func (sm *SM) drainMemCompletions(now int64) {
	sm.memInFlight -= sm.memComplete.expire(now)
}

// nextEvent returns the earliest future time anything changes on this SM,
// or -1 if nothing is pending. Memory completions were drained through
// now at the start of the step, so every one left is in the future.
func (sm *SM) nextEvent(now int64) int64 {
	next := sm.memComplete.next()
	sm.wakeups.expire(now)
	if t := sm.wakeups.next(); t >= 0 && (next < 0 || t < next) {
		next = t
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

// storeGlobal defers a global-memory write; it commits at cycle end in
// SM order (applyStores).
func (sm *SM) storeGlobal(mem []uint64, addr int64, v uint64) {
	sm.stores = append(sm.stores, pendingStore{mem: mem, addr: addr, val: v})
}

// applyStores commits the cycle's deferred global writes, counting
// out-of-bounds addresses on the SM that issued the store.
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
			obs.OnStall(StallSlot{Cycle: now, SM: sm.id, Scheduler: sched.id,
				Cause: res.cause, Warp: res.warp})
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
	switch {
	case last == nil, last.atBarrier:
		// Nothing to retry: tryIssue skips a warp at a barrier.
	case last.blockedUntil > now:
		// Known scoreboard-blocked, as in the walk below.
		charged = slotResult{cause: CauseScoreboard, warp: last}
	default:
		out := sm.tryIssue(last, now)
		if out == outIssued {
			return slotResult{cause: CauseIssued, warp: last}
		}
		if c := out.stallCause(); c != causeInvalid {
			charged = slotResult{cause: c, warp: last}
		}
	}
	if sched.orderGen != sm.orderGen || (rr && sched.orderAt != now) {
		sched.rebuildOrder(sm, now)
	}
	lastPos := -1 // the greedy warp's walk entry, already tried above
	if last != nil && last.orderPos < len(sched.order) && sched.order[last.orderPos] == last {
		lastPos = last.orderPos
	}
	// Walk the kept pick list once, reading each warp's facts from the
	// dense until array and loading only the warps it tries or charges.
	// Priorities change only through orderGen, so a change during the
	// walk takes effect at the next slot; until entries an attempt
	// changes (a barrier released by a warp exit) are read as the walk
	// reaches them.
	for i, t := range sched.until {
		if t == parked || i == lastPos {
			continue
		}
		if t > now {
			// Scoreboard-blocked until a known future cycle: charge
			// without re-decoding the instruction. The cached bound is
			// conservative (fault injection only delays writebacks), so
			// an expired bound is simply recomputed by tryIssue.
			if charged.cause == causeInvalid {
				charged = slotResult{cause: CauseScoreboard, warp: sched.order[i]}
			}
			continue
		}
		w := sched.order[i]
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
// live warp maps to the scheduler at all. A barrier slot is charged to
// the oldest mapped warp at the barrier.
func (sm *SM) classifyIdleSlot(sched *scheduler) slotResult {
	if len(sm.warps) == 0 {
		return slotResult{cause: CauseEmpty}
	}
	n := len(sm.schedulers)
	for _, w := range sm.warps {
		if w.Widx%n != sched.id || w.Finished() {
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
	dc := &w.CTA.code[pc]
	in := dc.in

	if t := dc.readyAt(w); t > now {
		w.blockedUntil = t
		sm.syncWalk(w)
		return outScoreboard
	}
	// Structural hazards.
	if dc.flags&flagSFU != 0 && sm.sfuThisCycle >= sm.dev.Timing.SFUPortsPerSM {
		return outSFU
	}
	if dc.flags&flagGlobal != 0 && sm.memInFlight >= sm.dev.Timing.MaxInFlightMem {
		return outMem
	}
	// Policy gate (acquire/release, OWF locks, RFV allocation).
	if !sm.policy.TryIssue(w, in, now) {
		sm.sawPolicyBlock = true
		return outPolicy
	}

	// Commit: the instruction issues this cycle.
	active := w.activeMask()
	w.lastPC, w.lastActive = pc, active
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
		taken := sm.execute(w, dc, exec)
		ready := now + dc.lat
		dc.markWrite(w, ready)
		if dc.wakes() {
			sm.wakeups.push(ready)
		}
		if dc.flags&flagGlobal != 0 {
			sm.memInFlight++
			sm.memComplete.push(ready)
		}
		if in.Op == isa.OpBra {
			// taken = guard-true lanes; everyone else in the active
			// mask falls through.
			w.advance(in, pc, active, taken)
		} else {
			w.advance(in, pc, active, 0)
		}
		if dc.flags&flagSFU != 0 {
			sm.sfuThisCycle++
		}
	}

	// Register file traffic accounting (warp-row granularity, the unit
	// the energy model charges).
	sm.rfReads += int64(dc.rfReads)
	if dc.flags&flagDst != 0 {
		sm.rfWrites++
	}

	if dc.flags&flagAcqRel != 0 {
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
	sm.syncWalk(w)
	cta.barWaiting++
	if cta.barWaiting >= cta.liveWarps() {
		for _, x := range cta.warps {
			x.atBarrier = false
			sm.syncWalk(x)
		}
		cta.barWaiting = 0
	}
}

// onWarpFinished handles warp completion. CTA retirement is deferred to
// cycle end (Device.finishCycle), so the dispatcher's global state —
// each grid's next CTA, doneCTAs, the rotation — changes only after
// every SM has stepped, in SM order.
func (sm *SM) onWarpFinished(w *Warp) {
	if w.retired {
		return
	}
	w.retired = true
	w.finished = true
	sm.syncWalk(w)
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
				sm.syncWalk(x)
			}
		}
		cta.barWaiting = 0
	}
	if cta.doneWarps == len(cta.warps) {
		sm.pendingRetire = append(sm.pendingRetire, cta)
	}
}
