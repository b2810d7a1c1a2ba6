package liveness

import (
	"math/rand"
	"testing"
	"testing/quick"

	"regmutex/internal/cfg"
	"regmutex/internal/isa"
)

// randomStructured builds a random kernel from nested structured pieces
// (sequences, if/else diamonds, loops), always define-before-use.
func randomStructured(seed int64) *isa.Kernel {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("randstruct", 16, 2, 32)
	defined := 1
	b.Mov(0, isa.Imm(1))
	label := 0
	newLabel := func() string {
		label++
		return string(rune('a'+label%26)) + string(rune('a'+(label/26)%26)) + string(rune('0'+label%10))
	}
	emitALU := func(depth int) {
		d := isa.Reg(rng.Intn(16))
		a := isa.Reg(rng.Intn(defined))
		c := isa.Reg(rng.Intn(defined))
		b.IAdd(d, isa.R(a), isa.R(c))
		// Only unconditional definitions extend the pool readable by
		// later code: a register defined inside one branch arm is not
		// define-before-use on the other path.
		if depth == 0 && int(d) == defined && defined < 15 {
			defined++
		}
	}
	var emitBlock func(depth int)
	emitBlock = func(depth int) {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			switch {
			case depth < 2 && rng.Intn(4) == 0:
				// diamond
				thenL, joinL := newLabel(), newLabel()
				b.Setp(0, isa.CmpLT, isa.R(isa.Reg(rng.Intn(defined))), isa.Imm(int64(rng.Intn(8))))
				b.BraIf(0, thenL)
				emitBlock(depth + 1)
				b.Bra(joinL)
				b.Label(thenL)
				emitBlock(depth + 1)
				b.Label(joinL)
				emitALU(depth)
			case depth < 2 && rng.Intn(5) == 0:
				// bounded loop on a fresh counter
				topL := newLabel()
				ctr := isa.Reg(15)
				b.Mov(ctr, isa.Imm(int64(1+rng.Intn(3))))
				b.Label(topL)
				emitBlock(depth + 1)
				b.ISub(ctr, isa.R(ctr), isa.Imm(1))
				b.Setp(1, isa.CmpGT, isa.R(ctr), isa.Imm(0))
				b.BraIf(1, topL)
			default:
				emitALU(depth)
			}
		}
	}
	emitBlock(0)
	b.StGlobal(isa.R(0), 0, isa.R(isa.Reg(rng.Intn(defined))))
	b.Exit()
	k, err := b.Kernel()
	if err != nil {
		panic(err)
	}
	return k
}

// Property: no register is live at entry (define-before-use holds on the
// generated kernels, and the analysis must agree).
func TestNoUndefinedAtEntryProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := randomStructured(seed)
		g, err := cfg.Build(k)
		if err != nil {
			return false
		}
		inf := Analyze(k, g)
		return inf.UndefinedAtEntry().Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: DeadAfter is consistent with the live sets — a register
// reported dead after i must have been alive at i and must not be in
// LiveOut[i]. (The converse does not hold: values can also die on CFG
// edges, e.g. a loop counter on the loop-exit edge; those never appear in
// any DeadAfter and are reclaimed at warp exit, which is conservative for
// the RFV consumer.)
func TestDeadAfterConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := randomStructured(seed)
		g, err := cfg.Build(k)
		if err != nil {
			return false
		}
		inf := Analyze(k, g)
		inf.AnnotateDeadAfter(k)
		for i := range k.Instrs {
			alive := inf.LiveIn[i] | k.Instrs[i].Touches()
			for _, r := range k.Instrs[i].DeadAfter {
				if inf.LiveOut[i].Has(r) {
					return false // "dead" but still live
				}
				if !alive.Has(r) {
					return false // dead without ever being alive here
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: widening is conservative — the widened live sets contain the
// plain dataflow sets at every instruction.
func TestWideningIsSupersetProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := randomStructured(seed)
		g, err := cfg.Build(k)
		if err != nil {
			return false
		}
		inf := Analyze(k, g)
		plain := inf.dataflow()
		for i := range k.Instrs {
			if !plain.in[i].Diff(inf.LiveIn[i]).Empty() {
				return false
			}
			if !plain.out[i].Diff(inf.LiveOut[i]).Empty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MaxLive bounds every per-instruction live count, and the
// profile stays within [0, 1].
func TestMaxLiveBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := randomStructured(seed)
		g, err := cfg.Build(k)
		if err != nil {
			return false
		}
		inf := Analyze(k, g)
		for i := range k.Instrs {
			if inf.LiveIn[i].Count() > inf.MaxLive {
				return false
			}
		}
		for _, p := range inf.Profile() {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Loop-carried widening: a register written inside a divergent loop and
// used after it must be live through the whole loop body.
func TestLoopWidening(t *testing.T) {
	b := isa.NewBuilder("loopwide", 8, 2, 32)
	b.MovSpecial(0, isa.SpecTID)
	b.Mov(1, isa.Imm(4))
	b.Label("top")
	b.Setp(0, isa.CmpGT, isa.R(0), isa.Imm(16))
	b.BraIfNot(0, "skip")
	b.Mov(2, isa.Imm(7)) // defined only on some lanes' paths
	b.Label("skip")
	b.ISub(1, isa.R(1), isa.Imm(1))
	b.Setp(1, isa.CmpGT, isa.R(1), isa.Imm(0))
	b.BraIf(1, "top")
	b.StGlobal(isa.R(0), 0, isa.R(2)) // r2 used after the loop
	b.Exit()
	k := b.MustKernel()
	g, err := cfg.Build(k)
	if err != nil {
		t.Fatal(err)
	}
	inf := Analyze(k, g)
	// r2 must be live throughout the divergent region (both the branch
	// arm and the skip path), per the paper's conservative rule.
	for i := 2; i <= 7; i++ {
		if !inf.LiveIn[i].Has(2) && !k.Instrs[i].Defs().Has(2) {
			t.Errorf("r2 not live at loop instruction %d (%s)", i, &k.Instrs[i])
		}
	}
}
