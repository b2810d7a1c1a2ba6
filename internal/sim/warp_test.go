package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"regmutex/internal/isa"
)

func testWarp(lanes int) *Warp {
	k := &isa.Kernel{NumRegs: 8, NumPRegs: 2}
	return newWarp(k, 0, 0, &CTAState{}, 0, lanes)
}

func TestMaskFor(t *testing.T) {
	if maskFor(32) != fullMask {
		t.Error("full warp mask")
	}
	if maskFor(48) != fullMask {
		t.Error("oversized clamps to full")
	}
	if maskFor(8) != 0xFF {
		t.Errorf("partial mask = %x", maskFor(8))
	}
}

func TestSIMTDivergeAndReconverge(t *testing.T) {
	w := testWarp(32)
	bra := isa.NewInstr(isa.OpBra)
	bra.Target = 10
	bra.Reconv = 20
	bra.Guard = isa.Guard{Pred: 0}

	// Diverge at pc 5: lanes 0..15 taken, 16..31 fall through.
	taken := laneMask(0x0000FFFF)
	w.advance(&bra, 5, fullMask, taken)

	if w.StackDepth() != 3 {
		t.Fatalf("stack depth = %d, want 3 (reconv + 2 arms)", w.StackDepth())
	}
	// Taken path executes first.
	if pc := w.NextPC(); pc != 10 {
		t.Fatalf("NextPC = %d, want taken target 10", pc)
	}
	if got := w.activeMask(); got != taken {
		t.Fatalf("active = %x, want %x", got, taken)
	}
	// March the taken arm to the reconvergence point.
	nop := isa.NewInstr(isa.OpNop)
	for pc := 10; pc < 20; pc++ {
		w.advance(&nop, pc, w.activeMask(), 0)
	}
	// Now the fall-through arm runs.
	if pc := w.NextPC(); pc != 6 {
		t.Fatalf("NextPC = %d, want fall-through 6", pc)
	}
	if got := w.activeMask(); got != ^taken&fullMask {
		t.Fatalf("active = %x, want %x", got, ^taken&fullMask)
	}
	for pc := 6; pc < 20; pc++ {
		w.advance(&nop, pc, w.activeMask(), 0)
	}
	// Both arms done: reconverged with the full mask at pc 20.
	if pc := w.NextPC(); pc != 20 {
		t.Fatalf("NextPC = %d, want reconvergence 20", pc)
	}
	if got := w.activeMask(); got != fullMask {
		t.Fatalf("active after reconvergence = %x", got)
	}
	if w.StackDepth() != 1 {
		t.Errorf("stack depth = %d after reconvergence", w.StackDepth())
	}
}

func TestSIMTUniformBranches(t *testing.T) {
	w := testWarp(32)
	bra := isa.NewInstr(isa.OpBra)
	bra.Target = 42
	bra.Reconv = 50
	// All taken: no divergence entry.
	w.advance(&bra, 5, fullMask, fullMask)
	if w.StackDepth() != 1 || w.NextPC() != 42 {
		t.Errorf("uniform taken: depth %d pc %d", w.StackDepth(), w.NextPC())
	}
	// None taken: fall through.
	w2 := testWarp(32)
	w2.advance(&bra, 5, fullMask, 0)
	if w2.StackDepth() != 1 || w2.NextPC() != 6 {
		t.Errorf("uniform not-taken: depth %d pc %d", w2.StackDepth(), w2.NextPC())
	}
}

func TestSIMTExitLanes(t *testing.T) {
	w := testWarp(32)
	w.exitLanes(0x0000FFFF)
	if w.ActiveLaneCount() != 16 {
		t.Errorf("active lanes = %d, want 16", w.ActiveLaneCount())
	}
	if w.Finished() {
		t.Error("warp must not finish with live lanes")
	}
	w.exitLanes(0xFFFF0000)
	if w.NextPC() != -1 || !w.Finished() {
		t.Error("warp must finish when all lanes exit")
	}
}

func TestSIMTExitInsideDivergence(t *testing.T) {
	w := testWarp(32)
	bra := isa.NewInstr(isa.OpBra)
	bra.Target = 10
	bra.Reconv = 20
	bra.Guard = isa.Guard{Pred: 0}
	taken := laneMask(0x000000FF)
	w.advance(&bra, 5, fullMask, taken)
	// The taken arm exits its lanes entirely.
	w.exitLanes(taken)
	// Control moves straight to the fall-through arm.
	if pc := w.NextPC(); pc != 6 {
		t.Fatalf("NextPC = %d, want 6", pc)
	}
	nop := isa.NewInstr(isa.OpNop)
	for pc := 6; pc < 20; pc++ {
		w.advance(&nop, pc, w.activeMask(), 0)
	}
	if pc := w.NextPC(); pc != 20 {
		t.Fatalf("NextPC = %d, want reconvergence 20", pc)
	}
	if w.ActiveLaneCount() != 24 {
		t.Errorf("active = %d, want 24 (8 exited)", w.ActiveLaneCount())
	}
}

// dec decodes one instruction under the default timing.
func dec(in isa.Instr) *decoded {
	return &decodeKernel(&isa.Kernel{Instrs: []isa.Instr{in}}, DefaultTiming())[0]
}

func TestScoreboard(t *testing.T) {
	w := testWarp(32)
	write := isa.NewInstr(isa.OpIAdd)
	write.Dst = 3
	write.Srcs[0] = isa.R(1)
	write.Srcs[1] = isa.Imm(1)

	if dec(write).readyAt(w) > 0 {
		t.Fatal("fresh warp must be ready")
	}
	dec(write).markWrite(w, 100) // r3 busy until cycle 100

	readR3 := isa.NewInstr(isa.OpMov)
	readR3.Dst = 4
	readR3.Srcs[0] = isa.R(3)
	if dec(readR3).readyAt(w) <= 50 {
		t.Error("RAW hazard not detected")
	}
	if dec(readR3).readyAt(w) > 100 {
		t.Error("ready at writeback time")
	}
	// WAW on r3 also blocks.
	if dec(write).readyAt(w) <= 50 {
		t.Error("WAW hazard not detected")
	}
	// Unrelated registers unaffected.
	other := isa.NewInstr(isa.OpMov)
	other.Dst = 6
	other.Srcs[0] = isa.R(1)
	if dec(other).readyAt(w) > 50 {
		t.Error("independent instruction blocked")
	}
}

// TestDelayWritebackMovesOnlyInFlight injects the lost-writeback fault
// into a warp with one register write in flight: only that write moves,
// the idle registers and predicates keep their ready cycles, and the
// next instruction, which reads only idle registers, keeps its bound.
func TestDelayWritebackMovesOnlyInFlight(t *testing.T) {
	next := isa.NewInstr(isa.OpMov) // reads r1, writes r4: both idle
	next.Dst = 4
	next.Srcs[0] = isa.R(1)
	k := &isa.Kernel{NumRegs: 8, NumPRegs: 2, Instrs: []isa.Instr{next}}
	w := newWarp(k, 0, 0, &CTAState{code: decodeKernel(k, DefaultTiming())}, 0, 32)
	const now = 10
	w.regReady[1] = 5       // landed before now
	w.regReady[3] = now + 4 // in flight
	w.predReady[1] = now    // lands this cycle: not in flight
	w.refreshBound()
	w.DelayWriteback(now, now+1_000_000)
	for r, want := range []int64{0, 5, 0, now + 1_000_000, 0, 0, 0, 0} {
		if w.regReady[r] != want {
			t.Errorf("r%d ready at %d, want %d", r, w.regReady[r], want)
		}
	}
	if w.predReady[0] != 0 || w.predReady[1] != now {
		t.Errorf("predicate ready cycles %v, want [0 %d]", w.predReady, now)
	}
	if w.blockedUntil != 5 {
		t.Errorf("bound of an instruction reading only idle registers = %d, want 5", w.blockedUntil)
	}
}

func TestScoreboardPredicates(t *testing.T) {
	w := testWarp(32)
	setp := isa.NewInstr(isa.OpSetp)
	setp.PDst = 1
	setp.Srcs[0] = isa.R(0)
	setp.Srcs[1] = isa.Imm(0)
	dec(setp).markWrite(w, 40)

	guarded := isa.NewInstr(isa.OpMov)
	guarded.Dst = 2
	guarded.Srcs[0] = isa.Imm(1)
	guarded.Guard = isa.Guard{Pred: 1}
	if dec(guarded).readyAt(w) <= 10 {
		t.Error("guard predicate hazard not detected")
	}
	if dec(guarded).readyAt(w) > 40 {
		t.Error("ready once the predicate lands")
	}
}

func TestGuardMask(t *testing.T) {
	w := testWarp(32)
	for l := 0; l < 32; l++ {
		w.preds[0][l] = l%2 == 0
	}
	in := isa.NewInstr(isa.OpMov)
	in.Dst = 1
	in.Srcs[0] = isa.Imm(1)
	in.Guard = isa.Guard{Pred: 0}
	if got := w.guardMask(&in, fullMask); got != 0x55555555 {
		t.Errorf("guard mask = %x", got)
	}
	in.Guard.Neg = true
	if got := w.guardMask(&in, fullMask); got != 0xAAAAAAAA {
		t.Errorf("negated guard mask = %x", got)
	}
	// Guard interacts with the active mask.
	if got := w.guardMask(&in, 0x0000FFFF); got != 0x0000AAAA {
		t.Errorf("masked guard = %x", got)
	}
}

func TestWheel(t *testing.T) {
	for _, c := range []struct{ maxLat, span int64 }{{0, 64}, {63, 64}, {64, 128}, {400, 512}, {512, 1024}} {
		if got := newWheel(c.maxLat).mask + 1; got != c.span {
			t.Errorf("newWheel(%d) span = %d, want %d", c.maxLat, got, c.span)
		}
	}

	// Latencies above one bitmap word, drained in cycle order.
	wh := newWheel(400)
	for _, lat := range []int64{400, 70, 4, 70} {
		wh.push(10 + lat)
	}
	for _, step := range []struct {
		now       int64
		expired   int
		nextEvent int64
	}{{10, 0, 14}, {14, 1, 80}, {79, 0, 80}, {100, 2, 410}, {410, 1, -1}} {
		if n := wh.expire(step.now); n != step.expired {
			t.Errorf("expire(%d) = %d, want %d", step.now, n, step.expired)
		}
		if got := wh.next(); got != step.nextEvent {
			t.Errorf("after expire(%d): next = %d, want %d", step.now, got, step.nextEvent)
		}
	}

	// A skip longer than the span expires everything exactly once.
	wh = newWheel(100) // span 128
	for _, t0 := range []int64{3, 50, 127, 130} {
		wh.push(t0)
	}
	if n := wh.expire(10_000); n != 4 {
		t.Errorf("expire past the span = %d, want 4", n)
	}
	if got := wh.next(); got != -1 {
		t.Errorf("next after a full expire = %d, want -1", got)
	}
	wh.push(10_001 + 127)
	if got := wh.next(); got != 10_128 {
		t.Errorf("next after push = %d, want 10128", got)
	}

	// A push after a long sleep must not see stale slots: cycles 5 and 6
	// alias slots of 901 and 902 and were never expired.
	wh = newWheel(100)
	wh.push(5)
	wh.push(6)
	wh.push(1000)
	if got := wh.next(); got != 1000 {
		t.Fatalf("next after aliasing push = %d, want 1000 (stale slot shadowed it)", got)
	}
	wh.push(901)
	if got := wh.next(); got != 901 {
		t.Errorf("next = %d, want 901", got)
	}
	if n := wh.expire(1000); n != 2 {
		t.Errorf("expire(1000) = %d, want 2 (stale events dropped)", n)
	}
}

// TestWheelMatchesMultiset drives a wheel the way an SM drives its
// memory-completion wheel (expire through now, then push at now + a
// latency in [1, maxLat]) across random sleeps, some longer than the
// span, and checks every expire count and next event against a plain
// list.
func TestWheelMatchesMultiset(t *testing.T) {
	const maxLat = 400
	rng := rand.New(rand.NewSource(7))
	wh := newWheel(maxLat)
	var ref []int64
	now := int64(0)
	for step := 0; step < 20_000; step++ {
		switch r := rng.Intn(100); {
		case r < 2:
			now += 512 + rng.Int63n(2000)
		case r < 30:
			now += 1 + rng.Int63n(64)
		default:
			now++
		}
		want := 0
		live := ref[:0]
		for _, e := range ref {
			if e <= now {
				want++
			} else {
				live = append(live, e)
			}
		}
		ref = live
		if got := wh.expire(now); got != want {
			t.Fatalf("step %d: expire(%d) = %d, want %d", step, now, got, want)
		}
		for n := rng.Intn(4); n > 0; n-- {
			e := now + 1 + rng.Int63n(maxLat)
			wh.push(e)
			ref = append(ref, e)
		}
		next := int64(-1)
		for _, e := range ref {
			if next < 0 || e < next {
				next = e
			}
		}
		if got := wh.next(); got != next {
			t.Fatalf("step %d: next = %d, want %d", step, got, next)
		}
	}
}

// TestRecycledWarpIsFresh dirties every part of a warp, relaunches it
// in its own storage, and checks it equals a newly allocated warp with
// the same launch: zero registers, predicates and scoreboard, one frame
// at PC 0, no counters.
func TestRecycledWarpIsFresh(t *testing.T) {
	k := &isa.Kernel{NumRegs: 8, NumPRegs: 2}
	w := newWarp(k, 3, 5, &CTAState{}, 1, 32)
	bra := isa.NewInstr(isa.OpBra)
	bra.Target, bra.Reconv = 10, 20
	w.advance(&bra, 5, fullMask, 0x0000FFFF)
	w.exitLanes(0xFF)
	w.regs[7][31], w.preds[1][0], w.regReady[2], w.predReady[1] = 9, true, 40, 41
	w.atBarrier, w.retired, w.blockedUntil, w.orderPos, w.sched = true, true, 77, -1, 1
	w.snapIssued, w.snapEpoch, w.lastPC, w.lastActive = 4, 2, 6, 0xF0
	w.Issued, w.Stalls[CauseBarrier] = 12, 13

	cta := &CTAState{ID: 4}
	w.recycle(8, 9, cta, 0, 20)
	want := newWarp(k, 8, 9, cta, 0, 20)
	if len(w.below) != 0 {
		t.Fatalf("recycled warp keeps %d stack frames", len(w.below))
	}
	w.below, want.below = nil, nil
	if !reflect.DeepEqual(w, want) {
		t.Errorf("recycled warp\n%+v\nwant\n%+v", *w, *want)
	}
}

// TestWakeWheelMatchesBounds drives one scheduler's walk sets the way
// the issue path does: it refiles ready or parked entries with a new
// bound (expired, near, up to the slowest latency, or a fault-delayed
// bound far past the span) and drains through random sleeps, some longer
// than the span. After every drain each of the 100 entries (two bit-set
// words) must be ready iff its bound has expired and blocked iff not.
func TestWakeWheelMatchesBounds(t *testing.T) {
	const n, maxLat = 100, 400
	rng := rand.New(rand.NewSource(11))
	words := (n + 63) / 64
	sched := &scheduler{until: make([]int64, n), ready: make([]uint64, words),
		blocked: make([]uint64, words), wake: newWakeWheel(maxLat, words)}
	for i := range sched.until {
		sched.refile(i, parked)
	}
	now := int64(0)
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(100); {
		case r < 2:
			now += 2*maxLat + rng.Int63n(maxLat)
		case r < 10:
			now += 1 + rng.Int63n(50)
		default:
			now++
		}
		sched.wakeUp(now)
		for i, u := range sched.until {
			ready := sched.ready[i>>6]>>uint(i&63)&1 != 0
			blocked := sched.blocked[i>>6]>>uint(i&63)&1 != 0
			if ready != (u != parked && u <= now) || blocked != (u != parked && u > now) {
				t.Fatalf("step %d, cycle %d: entry %d bound %d: ready %v blocked %v", step, now, i, u, ready, blocked)
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			i := rng.Intn(n)
			if sched.blocked[i>>6]>>uint(i&63)&1 != 0 {
				continue // a blocked warp cannot issue, so is never refiled
			}
			var b int64
			switch r := rng.Intn(10); {
			case r == 0:
				b = parked
			case r == 1:
				b = now - rng.Int63n(5)
			case r == 2:
				b = now + 2*maxLat + rng.Int63n(4*maxLat) // past the span, as Warp.DelayWriteback
			default:
				b = now + 1 + rng.Int63n(maxLat)
			}
			sched.refile(i, b)
		}
	}
}

// Property: advance never loses or duplicates lanes — the union of all
// stack masks (minus exited lanes) equals the original active set.
func TestSIMTLaneConservationProperty(t *testing.T) {
	f := func(takenRaw uint32, exitRaw uint32) bool {
		w := testWarp(32)
		bra := isa.NewInstr(isa.OpBra)
		bra.Target = 10
		bra.Reconv = 20
		bra.Guard = isa.Guard{Pred: 0}
		taken := laneMask(takenRaw)
		w.advance(&bra, 5, fullMask, taken)
		w.exitLanes(laneMask(exitRaw))

		union := w.cur.mask
		for _, e := range w.below {
			union |= e.mask
		}
		return union&^w.done == fullMask&^w.done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimingLatencyTable(t *testing.T) {
	tm := DefaultTiming()
	lat := func(op isa.Opcode) int64 { return dec(isa.NewInstr(op)).lat }
	if lat(isa.OpIAdd) != tm.ALULatency {
		t.Error("ALU latency")
	}
	if lat(isa.OpFFma) != tm.FPLatency {
		t.Error("FP latency")
	}
	if lat(isa.OpFSin) != tm.SFULatency {
		t.Error("SFU latency")
	}
	if lat(isa.OpLdGlobal) != tm.GlobalLatency {
		t.Error("global latency")
	}
	if lat(isa.OpLdShared) != tm.SharedLatency {
		t.Error("shared latency")
	}
	if lat(isa.OpLdGlobal) <= lat(isa.OpIAdd) {
		t.Error("memory must dominate ALU for latency hiding to matter")
	}
}
