package sim

import (
	"math/bits"

	"regmutex/internal/isa"
)

// laneMask is a 32-bit active-thread mask.
type laneMask uint32

const fullMask laneMask = 0xFFFFFFFF

func maskFor(threads int) laneMask {
	if threads >= isa.WarpSize {
		return fullMask
	}
	return laneMask(1)<<uint(threads) - 1
}

// stackEntry is one SIMT reconvergence stack frame.
type stackEntry struct {
	pc   int
	rpc  int // reconvergence PC; -1 = never (bottom frame / exit-joined)
	mask laneMask
}

// Warp is one resident warp: SIMT control state, per-lane register values,
// and scoreboard timing. The fields an issue touches come first, so they
// share as few cache lines as the struct allows.
type Warp struct {
	// The SIMT reconvergence stack: cur is its top frame, the one that
	// issues next (meaningless once the warp has finished), and below
	// holds the frames under it, bottom first.
	cur   stackEntry
	below []stackEntry
	done  laneMask // lanes that executed EXIT

	// Wait states.
	atBarrier bool
	finished  bool
	retired   bool

	// blockedUntil is the earliest cycle the warp's next instruction
	// clears the scoreboard: that instruction's decoded.readyAt, computed
	// once at the end of every issue (and raised by DelayWriteback). The
	// scoreboard changes only when the warp itself issues, so the bound is
	// exact between issues and schedulers never re-decode to check it.
	blockedUntil int64

	// code is the CTA's issue table (CTAState.code), one load closer.
	code []decoded

	// sched is the warp's scheduler (Widx mod SchedulersPerSM); orderPos
	// is its index in that scheduler's pick list as of the list's last
	// rebuild (SM.syncWalk).
	sched    int
	orderPos int

	// Scoreboard: cycle at which each register's pending write lands.
	regReady  []int64
	predReady []int64

	// Functional state: per-architected-register, per-lane values.
	regs  [][isa.WarpSize]uint64
	preds [][isa.WarpSize]bool

	// lastPC / lastActive record the most recent issue: its PC and the
	// lanes active on it (LastIssue).
	lastPC     int
	lastActive laneMask

	// Identity.
	Seq     int // global launch order, for oldest-first scheduling
	Widx    int // warp slot index within the SM (the paper's Widx)
	CTA     *CTAState
	ctaIdx  int // index within the CTA (%warpid; %tid is ctaIdx·32 + lane)
	LaneCnt int // live threads (last warp of a CTA may be partial)

	// snapIssued / snapEpoch are the forward-progress watchdog's per-warp
	// snapshot (Issued as of the epoch tagged snapEpoch). Keeping them on
	// the warp replaces the map the watchdog used to allocate per check.
	snapIssued int64
	snapEpoch  uint64

	// Per-warp counters. Stalls is the warp's share of the per-cycle
	// scheduler-slot attribution: a warp is charged only on cycles a
	// scheduler charged its slot to this warp (so per-warp breakdowns
	// sum to the charged slot-cycles, not to the warp's lifetime).
	Issued int64
	Stalls StallBreakdown
}

func newWarp(k *isa.Kernel, seq, widx int, cta *CTAState, idx, lanes int) *Warp {
	w := &Warp{
		regs:      make([][isa.WarpSize]uint64, k.NumRegs),
		preds:     make([][isa.WarpSize]bool, k.NumPRegs),
		regReady:  make([]int64, k.NumRegs),
		predReady: make([]int64, k.NumPRegs),
	}
	w.launch(seq, widx, cta, idx, lanes)
	return w
}

// launch gives w, whose register storage is zero, a fresh launch: its
// identity, one full-mask frame at PC 0, and zero counters.
func (w *Warp) launch(seq, widx int, cta *CTAState, idx, lanes int) {
	*w = Warp{
		Seq:       seq,
		Widx:      widx,
		CTA:       cta,
		code:      cta.code,
		ctaIdx:    idx,
		LaneCnt:   lanes,
		cur:       stackEntry{pc: 0, rpc: -1, mask: maskFor(lanes)},
		below:     w.below[:0],
		regs:      w.regs,
		preds:     w.preds,
		regReady:  w.regReady,
		predReady: w.predReady,
	}
}

// recycle relaunches a retired warp of the same register shape in its
// own storage, zeroing its registers and scoreboard first.
func (w *Warp) recycle(seq, widx int, cta *CTAState, idx, lanes int) {
	clear(w.regs)
	clear(w.preds)
	clear(w.regReady)
	clear(w.predReady)
	w.launch(seq, widx, cta, idx, lanes)
}

// Finished reports whether every lane has exited.
func (w *Warp) Finished() bool { return w.finished }

// top returns the current stack frame, or nil when the warp has
// finished. The stack is kept normalised (see normalize), so this is a
// plain load.
func (w *Warp) top() *stackEntry {
	if w.finished {
		return nil
	}
	return &w.cur
}

// normalize pops reconverged and fully exited frames, so the top frame,
// if any, is the one that issues next; an emptied stack finishes the
// warp. advance and exitLanes, the only writers of the stack and the
// exit mask, call it after every change.
func (w *Warp) normalize() {
	for w.cur.mask&^w.done == 0 || (w.cur.rpc >= 0 && w.cur.pc == w.cur.rpc) {
		// Fully exited, or reconverged: merge into the frame below,
		// which waits at this PC.
		n := len(w.below)
		if n == 0 {
			w.finished = true
			return
		}
		w.cur = w.below[n-1]
		w.below = w.below[:n-1]
	}
}

// NextPC returns the warp's next instruction index, or -1 when finished.
func (w *Warp) NextPC() int {
	if w.finished {
		return -1
	}
	return w.cur.pc
}

// activeMask returns the lanes that execute at the current frame.
func (w *Warp) activeMask() laneMask {
	if w.finished {
		return 0
	}
	return w.cur.mask &^ w.done
}

// guardMask narrows active to the lanes passing the instruction's guard.
func (w *Warp) guardMask(in *isa.Instr, active laneMask) laneMask {
	if in.Guard.Unguarded() {
		return active
	}
	var m laneMask
	p := &w.preds[in.Guard.Pred]
	for a := uint32(active); a != 0; a &= a - 1 {
		l := bits.TrailingZeros32(a)
		if p[l] != in.Guard.Neg {
			m |= 1 << uint(l)
		}
	}
	return m
}

// walkUntil is the warp's entry in its scheduler's dense pick state: parked
// while finished or at a barrier, else its scoreboard bound.
func (w *Warp) walkUntil() int64 {
	if w.finished || w.atBarrier {
		return parked
	}
	return w.blockedUntil
}

// advance moves control flow past the just-executed instruction.
// For branches, taken holds the lanes that jump.
func (w *Warp) advance(in *isa.Instr, pc int, active, taken laneMask) {
	t := w.top()
	if t == nil {
		return
	}
	switch {
	case in.Op != isa.OpBra:
		t.pc = pc + 1
	case taken == active: // uniform taken
		t.pc = in.Target
	case taken == 0: // uniform not-taken
		t.pc = pc + 1
	default: // divergence
		rpc := in.Reconv
		if rpc >= 0 {
			// This frame becomes the reconvergence continuation. When
			// paths only rejoin at exit (rpc < 0), it dissolves into
			// the two children instead.
			t.pc = rpc
			w.below = append(w.below, *t)
		}
		w.below = append(w.below, stackEntry{pc: pc + 1, rpc: rpc, mask: active &^ taken})
		w.cur = stackEntry{pc: in.Target, rpc: rpc, mask: taken}
	}
	w.normalize()
}

// exitLanes marks lanes as done.
func (w *Warp) exitLanes(m laneMask) {
	w.done |= m
	w.normalize()
}

// StackDepth reports the current divergence depth (diagnostics).
func (w *Warp) StackDepth() int {
	if w.finished {
		return 0
	}
	return len(w.below) + 1
}

// AtBarrier reports whether the warp is parked at a CTA barrier.
func (w *Warp) AtBarrier() bool { return w.atBarrier }

// MaxPendingWriteback returns the latest cycle at which any of the warp's
// pending register or predicate writes lands. The audit layer bounds this
// against now + Timing.MaxLatency(): a write scheduled further out than
// the slowest opcode means a lost or corrupted memory response.
func (w *Warp) MaxPendingWriteback() int64 {
	m := int64(0)
	for _, t := range w.regReady {
		m = max(m, t)
	}
	for _, t := range w.predReady {
		m = max(m, t)
	}
	return m
}

// DelayWriteback pushes every write still in flight at cycle now (its
// ready cycle is after now) to land at the given absolute cycle;
// registers and predicates with no pending write keep their ready
// cycles. FAULT INJECTION ONLY (internal/faults): it models a memory
// response delayed past any architectural bound, which must be caught by
// the scoreboard audit or the forward-progress watchdog.
//
// Besides the issue's own writeback it is the only scoreboard writer, so
// it raises the warp's exact bound to match. Call it from a policy's
// OnIssued hook: the issue that runs the hook then copies the raised
// bound into its scheduler's walk state.
func (w *Warp) DelayWriteback(now, until int64) {
	for i, t := range w.regReady {
		if t > now {
			w.regReady[i] = until
		}
	}
	for i, t := range w.predReady {
		if t > now {
			w.predReady[i] = until
		}
	}
	w.refreshBound()
}

// refreshBound recomputes blockedUntil from the next instruction's
// scoreboard operands. A finished warp keeps its last bound: it is
// parked and never scheduled again.
func (w *Warp) refreshBound() {
	if pc := w.NextPC(); pc >= 0 {
		w.blockedUntil = w.code[pc].readyAt(w)
	}
}

// ActiveLaneCount returns the number of currently active lanes.
func (w *Warp) ActiveLaneCount() int { return bits.OnesCount32(uint32(w.activeMask())) }
