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
// and scoreboard timing.
type Warp struct {
	// Identity.
	Seq     int // global launch order, for oldest-first scheduling
	Widx    int // warp slot index within the SM (the paper's Widx)
	CTA     *CTAState
	ctaIdx  int // index within the CTA (%warpid; %tid is ctaIdx·32 + lane)
	LaneCnt int // live threads (last warp of a CTA may be partial)

	stack []stackEntry
	done  laneMask // lanes that executed EXIT

	// Functional state: per-architected-register, per-lane values.
	regs  [][isa.WarpSize]uint64
	preds [][isa.WarpSize]bool

	// Scoreboard: cycle at which each register's pending write lands.
	regReady  []int64
	predReady []int64

	// Wait states.
	atBarrier bool
	finished  bool
	retired   bool

	// blockedUntil caches the earliest cycle the warp's next instruction
	// clears the scoreboard, set when an issue attempt fails on a pending
	// writeback. It is a conservative lower bound (fault injection only
	// pushes writebacks later), so schedulers may skip the warp without
	// re-decoding until it expires, then recompute.
	blockedUntil int64

	// sched is the warp's scheduler (Widx mod SchedulersPerSM); orderPos
	// is its index in that scheduler's pick list as of the list's last
	// rebuild (SM.syncWalk).
	sched    int
	orderPos int

	// snapIssued / snapEpoch are the forward-progress watchdog's per-warp
	// snapshot (Issued as of the epoch tagged snapEpoch). Keeping them on
	// the warp replaces the map the watchdog used to allocate per check.
	snapIssued int64
	snapEpoch  uint64

	// lastPC / lastActive record the most recent issue: its PC and the
	// lanes active on it (LastIssue).
	lastPC     int
	lastActive laneMask

	// Per-warp counters. Stalls is the warp's share of the per-cycle
	// scheduler-slot attribution: a warp is charged only on cycles a
	// scheduler charged its slot to this warp (so per-warp breakdowns
	// sum to the charged slot-cycles, not to the warp's lifetime).
	Issued int64
	Stalls StallBreakdown
}

func newWarp(k *isa.Kernel, seq, widx int, cta *CTAState, idx, lanes int) *Warp {
	w := &Warp{
		Seq:       seq,
		Widx:      widx,
		CTA:       cta,
		ctaIdx:    idx,
		LaneCnt:   lanes,
		stack:     []stackEntry{{pc: 0, rpc: -1, mask: maskFor(lanes)}},
		regs:      make([][isa.WarpSize]uint64, k.NumRegs),
		preds:     make([][isa.WarpSize]bool, k.NumPRegs),
		regReady:  make([]int64, k.NumRegs),
		predReady: make([]int64, k.NumPRegs),
	}
	return w
}

// Finished reports whether every lane has exited.
func (w *Warp) Finished() bool { return w.finished }

// top returns the current stack frame after popping reconverged and
// fully-exited frames. Returns nil when the warp has finished.
func (w *Warp) top() *stackEntry {
	for len(w.stack) > 0 {
		t := &w.stack[len(w.stack)-1]
		if t.mask&^w.done == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if t.rpc >= 0 && t.pc == t.rpc {
			// Reconverged: merge into the frame below, which waits at
			// this PC.
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return t
	}
	w.finished = true
	return nil
}

// NextPC returns the warp's next instruction index, or -1 when finished.
func (w *Warp) NextPC() int {
	t := w.top()
	if t == nil {
		return -1
	}
	return t.pc
}

// activeMask returns the lanes that execute at the current frame.
func (w *Warp) activeMask() laneMask {
	t := w.top()
	if t == nil {
		return 0
	}
	return t.mask &^ w.done
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
// while finished or at a barrier, else the cached scoreboard bound.
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
		t.pc = rpc // this frame becomes the reconvergence continuation
		if rpc < 0 {
			// Paths only rejoin at exit: the parent frame dissolves
			// into the two children.
			w.stack = w.stack[:len(w.stack)-1]
		}
		notTaken := active &^ taken
		w.stack = append(w.stack,
			stackEntry{pc: pc + 1, rpc: rpc, mask: notTaken},
			stackEntry{pc: in.Target, rpc: rpc, mask: taken},
		)
	}
}

// exitLanes marks lanes as done.
func (w *Warp) exitLanes(m laneMask) { w.done |= m }

// StackDepth reports the current divergence depth (diagnostics).
func (w *Warp) StackDepth() int { return len(w.stack) }

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

// DelayWriteback pushes every pending scoreboard write to land at the
// given absolute cycle. FAULT INJECTION ONLY (internal/faults): it models
// a memory response delayed past any architectural bound, which must be
// caught by the scoreboard audit or the forward-progress watchdog.
func (w *Warp) DelayWriteback(until int64) {
	for i := range w.regReady {
		w.regReady[i] = until
	}
	for i := range w.predReady {
		w.predReady[i] = until
	}
}

// ActiveLaneCount returns the number of currently active lanes.
func (w *Warp) ActiveLaneCount() int { return bits.OnesCount32(uint32(w.activeMask())) }
