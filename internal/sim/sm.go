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

// calendar is the bitmap half of the SM's event wheels: one bit per
// cycle slot, set while the slot holds something. Its span is a power of
// two above every issue-to-writeback latency, so every live entry lies in
// [base, base+span) and its slot is its cycle mod span; every slot
// before base is drained. drain and next cost O(span/64) words at most.
type calendar struct {
	nz   []uint64 // bit s set iff slot s holds something
	mask int64    // span - 1
	base int64    // earliest cycle an entry can be at
}

// newCalendar sizes a calendar for entries at most maxLatency cycles
// ahead.
func newCalendar(maxLatency int64) calendar {
	span := int64(64)
	for span <= maxLatency {
		span <<= 1
	}
	return calendar{nz: make([]uint64, span/64), mask: span - 1}
}

// mark sets cycle t's slot, which the caller fills, and returns it.
func (c *calendar) mark(t int64) int64 {
	s := t & c.mask
	c.nz[s>>6] |= 1 << uint(s&63)
	return s
}

// drain calls empty on every marked slot of a cycle in [base, now],
// unmarks them, and moves base past now, which is at or after base.
func (c *calendar) drain(now int64, empty func(s int64)) {
	end := min(now, c.base+c.mask) // one span past base covers every slot
	for t := c.base; t <= end; {
		s := t & c.mask
		bit := s & 63
		n := min(64-bit, end-t+1)
		m := ^uint64(0) >> uint(64-n) << uint(bit)
		word := &c.nz[s>>6]
		for set := *word & m; set != 0; set &= set - 1 {
			empty(s&^63 + int64(bits.TrailingZeros64(set)))
		}
		*word &^= m
		t += n
	}
	c.base = now + 1
}

// next returns the earliest marked cycle, or -1 when none is.
func (c *calendar) next() int64 {
	start := c.base & c.mask
	w0 := int(start >> 6)
	if x := c.nz[w0] >> uint(start&63); x != 0 {
		return c.base + int64(bits.TrailingZeros64(x))
	}
	for k := 1; k <= len(c.nz); k++ {
		w := (w0 + k) % len(c.nz)
		if x := c.nz[w]; x != 0 {
			i := int64(w)<<6 + int64(bits.TrailingZeros64(x))
			return c.base + (i-start)&c.mask
		}
	}
	return -1
}

// wheel is a calendar of future event cycles with an event count per
// slot. Slots of cycles before base are zero; a push that would alias
// one of them first clears the cycles it overtakes, so stale events
// never shadow fresh ones. Push, expire and next allocate nothing.
type wheel struct {
	calendar
	counts []int32
}

// newWheel sizes a wheel for events at most maxLatency cycles ahead.
func newWheel(maxLatency int64) wheel {
	c := newCalendar(maxLatency)
	return wheel{calendar: c, counts: make([]int32, c.mask+1)}
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
	wh.counts[wh.mark(t)]++
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
	wh.drain(now, func(s int64) {
		n += int(wh.counts[s])
		wh.counts[s] = 0
	})
	return n
}

// wakeWheel is a scheduler's calendar of scoreboard bounds: each slot's
// row holds the pick-list positions whose bound expires in its cycle.
// Bounds a span or more ahead, which only fault injection makes
// (Warp.DelayWriteback), wait in far instead. The wheel holds exactly
// the scheduler's blocked entries, each at its bound.
type wakeWheel struct {
	calendar
	words int      // words per row
	rows  []uint64 // one row of position bits per slot
	far   []uint64 // positions whose bound was a span or more ahead
	farAt int64    // earliest bound in far; parked when far is empty
}

// newWakeWheel sizes a wake wheel for bounds at most maxLatency cycles
// ahead over positions held in words-word bit sets.
func newWakeWheel(maxLatency int64, words int) wakeWheel {
	c := newCalendar(maxLatency)
	return wakeWheel{calendar: c, words: words, rows: make([]uint64, (c.mask+1)*int64(words)),
		far: make([]uint64, words), farAt: parked}
}

// row returns slot s's position bits.
func (wh *wakeWheel) row(s int64) []uint64 {
	return wh.rows[s*int64(wh.words) : (s+1)*int64(wh.words)]
}

// push files position i under bound t, which is at or after base.
func (wh *wakeWheel) push(t int64, i int) {
	bit := uint64(1) << uint(i&63)
	if t-wh.base > wh.mask {
		wh.far[i>>6] |= bit
		wh.farAt = min(wh.farAt, t)
		return
	}
	wh.row(wh.mark(t))[i>>6] |= bit
}

// reset empties the wheel, keeping base.
func (wh *wakeWheel) reset() {
	for k, x := range wh.nz {
		for ; x != 0; x &= x - 1 {
			clear(wh.row(int64(k)<<6 + int64(bits.TrailingZeros64(x))))
		}
		wh.nz[k] = 0
	}
	clear(wh.far)
	wh.farAt = parked
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
	// walkUntil. ready and blocked are bit sets over order positions that
	// split the entries that are not parked: ready holds those whose
	// bound expired by the cycle wake was last drained through, blocked
	// the rest, each of which waits on wake at its bound. So the walk
	// visits only the warps that can issue, and finds the first
	// scoreboard-blocked one by bit scan. SM.syncWalk keeps all four
	// current wherever a warp's finished, atBarrier or blockedUntil
	// changes; rebuildOrder refills them.
	until          []int64
	ready, blocked []uint64
	wake           wakeWheel
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
	// Warps retired with their CTA leave the list here, and nothing else
	// refers to them: their storage goes to the SM's free list.
	for _, w := range sched.order {
		if w.orderPos < 0 {
			sm.free = append(sm.free, w)
		}
	}
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
	sched.order, sched.until = order, sched.until[:len(order)]
	sched.orderGen = sm.orderGen
	sched.orderAt = now
	// Positions moved: refile every entry.
	sched.wake.reset()
	clear(sched.ready)
	clear(sched.blocked)
	for i, w := range order {
		w.orderPos = i
		sched.refile(i, w.walkUntil())
	}
}

// refile sets walk entry i's until to t and files the entry in the set
// t says: none when parked, ready if the bound expired by the wheel's
// last drain, else blocked and on the wheel at its bound. An entry is
// refiled only while it is ready or parked (a warp's walk facts change
// only when it issues, arrives at or leaves a barrier, or exits), or
// after rebuildOrder empties the sets and the wheel, so no wheel entry is
// left behind.
func (sched *scheduler) refile(i int, t int64) {
	k, bit := i>>6, uint64(1)<<uint(i&63)
	sched.until[i] = t
	sched.ready[k] &^= bit
	switch {
	case t == parked:
	case t < sched.wake.base:
		sched.ready[k] |= bit
	default:
		sched.blocked[k] |= bit
		sched.wake.push(t, i)
	}
}

// wakeUp drains the wake wheel through now: every blocked entry whose
// bound has expired becomes ready. The common step, one cycle after the
// last with no far entry due, reads one row.
func (sched *scheduler) wakeUp(now int64) {
	wh := &sched.wake
	if now == wh.base && wh.farAt > now {
		wh.base++
		if s := now & wh.mask; wh.nz[s>>6]&(1<<uint(s&63)) != 0 {
			wh.nz[s>>6] &^= 1 << uint(s&63)
			sched.wakeRow(s)
		}
		return
	}
	if now >= wh.base {
		wh.drain(now, sched.wakeRow)
	}
	if wh.farAt <= now {
		sched.wakeFar(now)
	}
}

// wakeRow makes ready the positions of slot s's row, all due, and
// empties it.
func (sched *scheduler) wakeRow(s int64) {
	row := sched.wake.row(s)
	for k, x := range row {
		sched.ready[k] |= x
		sched.blocked[k] &^= x
		row[k] = 0
	}
}

// wakeFar makes ready the far entries whose bound expired by now; the
// rest stay far.
func (sched *scheduler) wakeFar(now int64) {
	wh := &sched.wake
	wh.farAt = parked
	for k, x := range wh.far {
		for ; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			if t := sched.until[k<<6+b]; t > now {
				wh.farAt = min(wh.farAt, t)
				continue
			}
			bit := uint64(1) << uint(b)
			sched.ready[k] |= bit
			sched.blocked[k] &^= bit
			wh.far[k] &^= bit
		}
	}
}

// nextEntry returns the first position at or after from whose bit is set
// in set, skipping position skip, or -1.
func nextEntry(set []uint64, from, skip int) int {
	for k := from >> 6; k < len(set); k++ {
		x := set[k]
		if k == from>>6 {
			x &= ^uint64(0) << uint(from&63)
		}
		if k == skip>>6 {
			x &^= 1 << uint(skip&63)
		}
		if x != 0 {
			return k<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// syncWalk copies w's walk facts into its scheduler's dense walk state.
// A warp launched since the scheduler's last rebuild has no entry yet;
// the rebuild that adds it reads its facts.
func (sm *SM) syncWalk(w *Warp) {
	sched := &sm.schedulers[w.sched]
	if i := w.orderPos; uint(i) < uint(len(sched.order)) && sched.order[i] == w {
		sched.refile(i, w.walkUntil())
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
	outIssued issueOutcome = iota
	outSkip                // finished / at barrier: not a chargeable stall
	outSFU                 // SFU port taken this cycle
	outMem                 // global-memory queue full
	outPolicy              // policy gate refused (acquire-wait)
)

// stallCause maps a failed attempt to its charged cause. Structural
// back-pressure (memory queue, SFU port) folds into CauseMemory. A
// scoreboard stall is never an attempt: the walk charges it from the
// warp's exact bound.
func (o issueOutcome) stallCause() StallCause {
	switch o {
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
	free       []*Warp // retired warps, their storage for the next launches

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
	words := (per + 63) / 64
	for s := 0; s < nsched; s++ {
		sm.schedulers = append(sm.schedulers, scheduler{id: s,
			order: make([]*Warp, 0, per), until: make([]int64, 0, per),
			ready: make([]uint64, words), blocked: make([]uint64, words),
			wake: newWakeWheel(dev.Timing.MaxLatency(), words)})
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
		var w *Warp
		if w = sm.retiredWarp(k); w != nil {
			w.recycle(int(sm.dev.warpSeq), widx, cta, wi, lanes)
		} else {
			w = newWarp(k, int(sm.dev.warpSeq), widx, cta, wi, lanes)
		}
		w.sched = widx % len(sm.schedulers)
		sm.dev.warpSeq++
		cta.warps = append(cta.warps, w)
		sm.warps = append(sm.warps, w)
		sm.warpsLaunched++
	}
	sm.ctas = append(sm.ctas, cta)
	sm.orderGen++
}

// retiredWarp takes a warp off the free list whose register storage
// fits k, or returns nil.
func (sm *SM) retiredWarp(k *isa.Kernel) *Warp {
	for i := len(sm.free) - 1; i >= 0; i-- {
		if w := sm.free[i]; len(w.regs) == k.NumRegs && len(w.preds) == k.NumPRegs {
			sm.free[i] = sm.free[len(sm.free)-1]
			sm.free[len(sm.free)-1] = nil
			sm.free = sm.free[:len(sm.free)-1]
			return w
		}
	}
	return nil
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
		w.orderPos = -1 // its scheduler frees it when its pick list drops it
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
	sched.wakeUp(now)
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
		// Nothing to retry: a warp at a barrier cannot issue.
	case last.blockedUntil > now:
		// Scoreboard-blocked, as a blocked walk entry below.
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
	if last != nil && uint(last.orderPos) < uint(len(sched.order)) && sched.order[last.orderPos] == last {
		lastPos = last.orderPos
	}
	// Walk the kept pick list in order, bit-scanning for ready entries
	// and loading only the warps it tries or charges. The charge goes to
	// the first entry the walk passes that is blocked or fails its
	// attempt. Priorities change only through orderGen, so a change
	// during the walk takes effect at the next slot. The sets are re-read
	// after each attempt, so an entry an attempt changed would be seen as
	// the walk reaches it.
	for from := 0; ; {
		i := nextEntry(sched.ready, from, lastPos)
		out := outSkip
		if i >= 0 {
			if out = sm.tryIssue(sched.order[i], now); out == outIssued {
				sched.last = sched.order[i]
				return slotResult{cause: CauseIssued, warp: sched.last}
			}
		}
		if charged.cause == causeInvalid {
			// A blocked entry before i comes first; only an issue
			// changes other entries, so the attempt left the sets as
			// they were.
			if b := nextEntry(sched.blocked, from, lastPos); b >= 0 && (i < 0 || b < i) {
				charged = slotResult{cause: CauseScoreboard, warp: sched.order[b]}
			} else if c := out.stallCause(); c != causeInvalid {
				charged = slotResult{cause: c, warp: sched.order[i]}
			}
		}
		if i < 0 {
			break
		}
		from = i + 1
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
// first hazard that blocked the warp. The caller has checked the
// scoreboard: w's exact bound (blockedUntil) has expired. Per-warp stall
// counters are NOT bumped here — the charging site in step charges
// exactly one warp per scheduler slot per cycle.
func (sm *SM) tryIssue(w *Warp, now int64) issueOutcome {
	if w.Finished() || w.atBarrier {
		return outSkip
	}
	pc := w.NextPC()
	dc := &w.code[pc]
	in := dc.in

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
	// The scoreboard changes only here, so the next instruction's bound
	// is computed once per issue. OnIssued may raise it (fault injection:
	// Warp.DelayWriteback) before it reaches the walk state.
	w.refreshBound()
	sm.policy.OnIssued(w, in, now)
	if w.top() == nil {
		sm.onWarpFinished(w)
	} else {
		sm.syncWalk(w)
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
