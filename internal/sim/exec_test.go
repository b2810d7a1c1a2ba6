package sim

import (
	"math"
	"slices"
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// runScalar executes a one-warp kernel that computes dst = op(a, b[, c])
// per lane and stores lane results to global memory, returning lane 0's
// value. It exercises the full issue/scoreboard/execute path, not just
// the ALU switch.
func runScalar(t *testing.T, emit func(b *isa.Builder)) uint64 {
	t.Helper()
	b := isa.NewBuilder("scalar", 8, 2, 32)
	b.MovSpecial(0, isa.SpecTID)
	emit(b) // must leave the result in r7
	b.StGlobal(isa.R(0), 0, isa.R(7))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 1
	k.GlobalMemWords = 64

	cfg := occupancy.GTX480()
	cfg.NumSMs = 1
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return d.Global[0]
}

func TestIntegerOpSemantics(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *isa.Builder)
		want int64
	}{
		{"iadd", func(b *isa.Builder) { b.IAdd(7, isa.Imm(40), isa.Imm(2)) }, 42},
		{"isub", func(b *isa.Builder) { b.ISub(7, isa.Imm(40), isa.Imm(2)) }, 38},
		{"isub-negative", func(b *isa.Builder) { b.ISub(7, isa.Imm(2), isa.Imm(40)) }, -38},
		{"imul", func(b *isa.Builder) { b.IMul(7, isa.Imm(-6), isa.Imm(7)) }, -42},
		{"imad", func(b *isa.Builder) { b.IMad(7, isa.Imm(6), isa.Imm(7), isa.Imm(-2)) }, 40},
		{"imin", func(b *isa.Builder) { b.IMin(7, isa.Imm(-3), isa.Imm(5)) }, -3},
		{"imax", func(b *isa.Builder) { b.IMax(7, isa.Imm(-3), isa.Imm(5)) }, 5},
		{"iabs", func(b *isa.Builder) { b.IAbs(7, isa.Imm(-9)) }, 9},
		{"shl", func(b *isa.Builder) { b.Shl(7, isa.Imm(3), isa.Imm(4)) }, 48},
		{"shr-arithmetic", func(b *isa.Builder) { b.Shr(7, isa.Imm(-16), isa.Imm(2)) }, -4},
		{"and", func(b *isa.Builder) { b.And(7, isa.Imm(0b1100), isa.Imm(0b1010)) }, 0b1000},
		{"or", func(b *isa.Builder) { b.Or(7, isa.Imm(0b1100), isa.Imm(0b1010)) }, 0b1110},
		{"xor", func(b *isa.Builder) { b.Xor(7, isa.Imm(0b1100), isa.Imm(0b1010)) }, 0b0110},
		{"mov", func(b *isa.Builder) { b.Mov(7, isa.Imm(-1)) }, -1},
	}
	for _, c := range cases {
		if got := int64(runScalar(t, c.emit)); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFloatOpSemantics(t *testing.T) {
	cases := []struct {
		name string
		emit func(b *isa.Builder)
		want float64
	}{
		{"fadd", func(b *isa.Builder) { b.FAdd(7, isa.FImm(1.5), isa.FImm(2.25)) }, 3.75},
		{"fsub", func(b *isa.Builder) { b.FSub(7, isa.FImm(1.5), isa.FImm(2.25)) }, -0.75},
		{"fmul", func(b *isa.Builder) { b.FMul(7, isa.FImm(1.5), isa.FImm(-2)) }, -3},
		{"ffma", func(b *isa.Builder) { b.FFma(7, isa.FImm(2), isa.FImm(3), isa.FImm(0.5)) }, 6.5},
		{"fmin", func(b *isa.Builder) { b.FMin(7, isa.FImm(-1), isa.FImm(1)) }, -1},
		{"fmax", func(b *isa.Builder) { b.FMax(7, isa.FImm(-1), isa.FImm(1)) }, 1},
		{"fabs", func(b *isa.Builder) { b.FAbs(7, isa.FImm(-2.5)) }, 2.5},
		{"i2f", func(b *isa.Builder) { b.I2F(7, isa.Imm(-7)) }, -7},
		{"fsqrt", func(b *isa.Builder) { b.FSqrt(7, isa.FImm(9)) }, 3},
		{"fsqrt-negative-abs", func(b *isa.Builder) { b.FSqrt(7, isa.FImm(-9)) }, 3},
		{"frcp", func(b *isa.Builder) { b.FRcp(7, isa.FImm(4)) }, 0.25},
		{"fsin", func(b *isa.Builder) { b.FSin(7, isa.FImm(0)) }, 0},
		{"fcos", func(b *isa.Builder) { b.FCos(7, isa.FImm(0)) }, 1},
		{"fexp", func(b *isa.Builder) { b.FExp(7, isa.FImm(0)) }, 1},
		{"flog", func(b *isa.Builder) { b.FLog(7, isa.FImm(math.E)) }, 1},
	}
	for _, c := range cases {
		got := isa.B2F(runScalar(t, c.emit))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestF2ITruncates(t *testing.T) {
	if got := int64(runScalar(t, func(b *isa.Builder) { b.F2I(7, isa.FImm(3.9)) })); got != 3 {
		t.Errorf("f2i(3.9) = %d, want 3 (truncation)", got)
	}
	if got := int64(runScalar(t, func(b *isa.Builder) { b.F2I(7, isa.FImm(-3.9)) })); got != -3 {
		t.Errorf("f2i(-3.9) = %d, want -3", got)
	}
}

func TestFRcpZeroGuard(t *testing.T) {
	got := isa.B2F(runScalar(t, func(b *isa.Builder) { b.FRcp(7, isa.FImm(0)) }))
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("frcp(0) must not produce inf/NaN, got %v", got)
	}
}

func TestFExpClamps(t *testing.T) {
	got := isa.B2F(runScalar(t, func(b *isa.Builder) { b.FExp(7, isa.FImm(10000)) }))
	if math.IsInf(got, 0) {
		t.Error("fexp must clamp its argument to avoid inf")
	}
}

func TestSetpAllComparisons(t *testing.T) {
	cases := []struct {
		cmp   isa.CmpOp
		a, b  int64
		taken bool
	}{
		{isa.CmpEQ, 3, 3, true}, {isa.CmpEQ, 3, 4, false},
		{isa.CmpNE, 3, 4, true}, {isa.CmpNE, 3, 3, false},
		{isa.CmpLT, -1, 0, true}, {isa.CmpLT, 0, 0, false},
		{isa.CmpLE, 0, 0, true}, {isa.CmpLE, 1, 0, false},
		{isa.CmpGT, 1, 0, true}, {isa.CmpGT, 0, 0, false},
		{isa.CmpGE, 0, 0, true}, {isa.CmpGE, -1, 0, false},
	}
	for _, c := range cases {
		c := c
		got := int64(runScalar(t, func(b *isa.Builder) {
			b.Setp(0, c.cmp, isa.Imm(c.a), isa.Imm(c.b))
			b.Mov(7, isa.Imm(0))
			b.If(0)
			b.Mov(7, isa.Imm(1))
		}))
		want := int64(0)
		if c.taken {
			want = 1
		}
		if got != want {
			t.Errorf("setp.%v %d,%d -> %d, want %d", c.cmp, c.a, c.b, got, want)
		}
	}
}

func TestSetpFComparisons(t *testing.T) {
	got := int64(runScalar(t, func(b *isa.Builder) {
		b.SetpF(0, isa.CmpLT, isa.FImm(1.5), isa.FImm(2.5))
		b.Mov(7, isa.Imm(0))
		b.If(0)
		b.Mov(7, isa.Imm(1))
	}))
	if got != 1 {
		t.Errorf("setp.f.lt 1.5,2.5 -> %d, want 1", got)
	}
}

func TestSpecialRegisters(t *testing.T) {
	// tid differs per lane; check via a lane-indexed store.
	b := isa.NewBuilder("specials", 8, 1, 64)
	b.MovSpecial(0, isa.SpecTID)
	b.MovSpecial(1, isa.SpecNTID)
	b.MovSpecial(2, isa.SpecCTAID)
	b.MovSpecial(3, isa.SpecNCTAID)
	b.MovSpecial(4, isa.SpecLaneID)
	b.MovSpecial(5, isa.SpecWarpID)
	// value = tid + 1000*ntid + 100000*ctaid + laneid + 7*warpid
	b.IMad(6, isa.R(1), isa.Imm(1000), isa.R(0))
	b.IMad(6, isa.R(2), isa.Imm(100000), isa.R(6))
	b.IAdd(6, isa.R(6), isa.R(4))
	b.IMad(6, isa.R(5), isa.Imm(7), isa.R(6))
	b.Mov(7, isa.R(6))
	b.StGlobal(isa.R(0), 0, isa.R(7))
	b.Exit()
	k := b.MustKernel()
	k.GridCTAs = 2
	k.GlobalMemWords = 256

	cfg := occupancy.GTX480()
	cfg.NumSMs = 1
	pre, err := core.Prepare(k)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: pre})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	// Thread (cta=1, tid=40): lane 8, warp 1.
	tid, cta, lane, warp := 40, 1, 8, 1
	want := uint64(tid + 1000*64 + 100000*cta + lane + 7*warp)
	// Both CTAs write tid-indexed slots; CTA 1's thread 40 overwrote
	// CTA 0's only if addresses collide — they do (both store at tid).
	// The final value is whichever CTA stored last; to be deterministic,
	// check thread 40 of CTA 1 OR CTA 0 matches the formula.
	got := d.Global[40]
	want0 := uint64(tid + 1000*64 + 0 + lane + 7*warp)
	if got != want && got != want0 {
		t.Errorf("special-register mix = %d, want %d (cta1) or %d (cta0)", got, want, want0)
	}
}

// execFixture is one warp (warp 1 of CTA 3) with known register,
// predicate and memory contents, for calling execute directly.
type execFixture struct {
	sm *SM
	w  *Warp
}

func newExecFixture() execFixture {
	k := &isa.Kernel{Name: "fixture", NumRegs: 5, NumPRegs: 2, ThreadsPerCTA: 64, GridCTAs: 4}
	cta := &CTAState{ID: 3, kern: k, global: make([]uint64, 64), shared: make([]uint64, 16)}
	cta.warps = []*Warp{newWarp(k, 0, 0, cta, 0, 32), newWarp(k, 1, 1, cta, 1, 32)}
	w := cta.warps[1]
	for i := range cta.global {
		cta.global[i] = uint64(10*i + 1)
	}
	for i := range cta.shared {
		cta.shared[i] = uint64(100*i + 3)
	}
	for lane := 0; lane < isa.WarpSize; lane++ {
		w.regs[0][lane] = 0xdead0000 + uint64(lane) // destination sentinel
		w.regs[1][lane] = uint64(int64(3*lane - 40))
		w.regs[2][lane] = uint64(lane%5 + 1)
		w.regs[3][lane] = isa.F2B(0.75*float64(lane) - 5.5)
		w.regs[4][lane] = isa.F2B(float64(lane) + 0.5)
		w.preds[0][lane] = lane%3 == 0 // selp selector
		w.preds[1][lane] = lane%2 == 0 // setp destination sentinel
	}
	return execFixture{sm: &SM{dev: &Device{}}, w: w}
}

// TestExecuteEveryOpcodePartialMask runs every opcode through execute
// under a partial exec mask, once with register/immediate/register
// sources and once with immediate/register/immediate, and checks that
// active lanes get the opcode's value while every other register lane,
// predicate lane and memory word is untouched.
func TestExecuteEveryOpcodePartialMask(t *testing.T) {
	const exec laneMask = 0x0f0f00f5
	i64 := func(f func(a, b, c int64) int64) func(a, b, c uint64) uint64 {
		return func(a, b, c uint64) uint64 { return uint64(f(int64(a), int64(b), int64(c))) }
	}
	f64 := func(f func(a, b, c float64) float64) func(a, b, c uint64) uint64 {
		return func(a, b, c uint64) uint64 { return isa.F2B(f(isa.B2F(a), isa.B2F(b), isa.B2F(c))) }
	}
	// value is the destination each active lane must hold, from the
	// lane's resolved source values; float marks float-typed sources.
	type opCase struct {
		float bool
		value func(a, b, c uint64) uint64
	}
	cases := map[isa.Opcode]opCase{
		isa.OpMov:  {false, func(a, _, _ uint64) uint64 { return a }},
		isa.OpIAdd: {false, i64(func(a, b, _ int64) int64 { return a + b })},
		isa.OpISub: {false, i64(func(a, b, _ int64) int64 { return a - b })},
		isa.OpIMul: {false, i64(func(a, b, _ int64) int64 { return a * b })},
		isa.OpIMad: {false, i64(func(a, b, c int64) int64 { return a*b + c })},
		isa.OpIMin: {false, i64(func(a, b, _ int64) int64 { return min(a, b) })},
		isa.OpIMax: {false, i64(func(a, b, _ int64) int64 { return max(a, b) })},
		isa.OpIAbs: {false, i64(func(a, _, _ int64) int64 {
			if a < 0 {
				return -a
			}
			return a
		})},
		isa.OpShl:   {false, func(a, b, _ uint64) uint64 { return a << (b & 63) }},
		isa.OpShr:   {false, func(a, b, _ uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
		isa.OpAnd:   {false, func(a, b, _ uint64) uint64 { return a & b }},
		isa.OpOr:    {false, func(a, b, _ uint64) uint64 { return a | b }},
		isa.OpXor:   {false, func(a, b, _ uint64) uint64 { return a ^ b }},
		isa.OpFAdd:  {true, f64(func(a, b, _ float64) float64 { return a + b })},
		isa.OpFSub:  {true, f64(func(a, b, _ float64) float64 { return a - b })},
		isa.OpFMul:  {true, f64(func(a, b, _ float64) float64 { return a * b })},
		isa.OpFFma:  {true, f64(func(a, b, c float64) float64 { return a*b + c })},
		isa.OpFMin:  {true, f64(func(a, b, _ float64) float64 { return math.Min(a, b) })},
		isa.OpFMax:  {true, f64(func(a, b, _ float64) float64 { return math.Max(a, b) })},
		isa.OpFAbs:  {true, f64(func(a, _, _ float64) float64 { return math.Abs(a) })},
		isa.OpI2F:   {false, func(a, _, _ uint64) uint64 { return isa.F2B(float64(int64(a))) }},
		isa.OpF2I:   {true, func(a, _, _ uint64) uint64 { return uint64(int64(isa.B2F(a))) }},
		isa.OpFSqrt: {true, f64(func(a, _, _ float64) float64 { return math.Sqrt(math.Abs(a)) })},
		isa.OpFRcp: {true, f64(func(a, _, _ float64) float64 {
			if a == 0 {
				a = 1e-30
			}
			return 1 / a
		})},
		isa.OpFSin:       {true, f64(func(a, _, _ float64) float64 { return math.Sin(a) })},
		isa.OpFCos:       {true, f64(func(a, _, _ float64) float64 { return math.Cos(a) })},
		isa.OpFExp:       {true, f64(func(a, _, _ float64) float64 { return math.Exp(clampExp(a)) })},
		isa.OpFLog:       {true, f64(func(a, _, _ float64) float64 { return math.Log(math.Abs(a) + 1e-30) })},
		isa.OpSelp:       {false, nil}, // value depends on p0; checked below
		isa.OpLdGlobal:   {false, nil},
		isa.OpLdShared:   {false, nil},
		isa.OpMovSpecial: {false, nil},
	}
	forms := []struct {
		name string
		srcs func(float bool) [3]isa.Operand
	}{
		{"reg-imm-reg", func(float bool) [3]isa.Operand {
			if float {
				return [3]isa.Operand{isa.R(3), isa.FImm(2.5), isa.R(4)}
			}
			return [3]isa.Operand{isa.R(1), isa.Imm(7), isa.R(2)}
		}},
		{"imm-reg-imm", func(float bool) [3]isa.Operand {
			if float {
				return [3]isa.Operand{isa.FImm(-1.25), isa.R(4), isa.FImm(0.5)}
			}
			return [3]isa.Operand{isa.Imm(9), isa.R(2), isa.Imm(-3)}
		}},
	}
	covered := 0
	for op := isa.Opcode(0); op < isa.Opcode(isa.NumOpcodes); op++ {
		c, hasDst := cases[op]
		if hasDst != isa.HasDst(op) {
			t.Fatalf("%v: table and isa.HasDst disagree", op)
		}
		covered++
		for _, form := range forms {
			specs := []isa.SpecialReg{isa.SpecTID}
			if op == isa.OpMovSpecial {
				specs = []isa.SpecialReg{isa.SpecTID, isa.SpecNTID, isa.SpecCTAID, isa.SpecNCTAID, isa.SpecLaneID, isa.SpecWarpID}
			}
			for _, spec := range specs {
				fx := newExecFixture()
				w, cta := fx.w, fx.w.CTA
				in := isa.NewInstr(op)
				float := c.float || op == isa.OpSetpF
				in.Srcs = form.srcs(float)
				if isa.ClassOf(op) == isa.ClassMem && in.Srcs[0].Kind == isa.OpndReg {
					in.Srcs[0] = isa.R(2) // an in-bounds address
				}
				in.Cmp, in.Spec, in.Off = isa.CmpLT, spec, 5
				if isa.HasDst(op) {
					in.Dst = 0
				}
				if op == isa.OpSetp || op == isa.OpSetpF {
					in.PDst = 1
				}
				if op == isa.OpSelp {
					in.Guard = isa.Guard{Pred: 0}
				}
				val := func(o isa.Operand, lane int) uint64 {
					if o.Kind == isa.OpndImm {
						return uint64(o.Imm)
					}
					return w.regs[o.Reg][lane]
				}
				var wantRegs [5][isa.WarpSize]uint64
				copy(wantRegs[:], w.regs)
				var wantPreds [2][isa.WarpSize]bool
				copy(wantPreds[:], w.preds)
				wantGlobal := append([]uint64(nil), cta.global...)
				wantShared := append([]uint64(nil), cta.shared...)
				var wantStores []pendingStore
				var wantTaken laneMask
				for lane := 0; lane < isa.WarpSize; lane++ {
					if exec&(1<<uint(lane)) == 0 {
						continue
					}
					a, b, cc := val(in.Srcs[0], lane), val(in.Srcs[1], lane), val(in.Srcs[2], lane)
					addr := int64(a) + in.Off
					switch op {
					case isa.OpSetp:
						wantPreds[1][lane] = compare(in.Cmp, int64(a), int64(b))
					case isa.OpSetpF:
						wantPreds[1][lane] = compareF(in.Cmp, isa.B2F(a), isa.B2F(b))
					case isa.OpSelp:
						if w.preds[0][lane] {
							wantRegs[0][lane] = a
						} else {
							wantRegs[0][lane] = b
						}
					case isa.OpBra:
						wantTaken |= 1 << uint(lane)
					case isa.OpLdGlobal:
						wantRegs[0][lane] = cta.global[addr]
					case isa.OpLdShared:
						wantRegs[0][lane] = cta.shared[addr%int64(len(cta.shared))]
					case isa.OpStGlobal:
						wantStores = append(wantStores, pendingStore{mem: cta.global, addr: addr, val: b})
					case isa.OpStShared:
						wantShared[addr%int64(len(wantShared))] = b
					case isa.OpMovSpecial:
						wantRegs[0][lane] = map[isa.SpecialReg]uint64{
							isa.SpecTID: uint64(32 + lane), isa.SpecNTID: 64, isa.SpecCTAID: 3,
							isa.SpecNCTAID: 4, isa.SpecLaneID: uint64(lane), isa.SpecWarpID: 1,
						}[spec]
					default:
						if hasDst {
							wantRegs[0][lane] = c.value(a, b, cc)
						}
					}
				}
				taken := fx.sm.execute(w, dec(in), exec)
				name := op.String() + "/" + form.name
				if op == isa.OpMovSpecial {
					name += "/" + spec.String()
				}
				if taken != wantTaken {
					t.Errorf("%s: taken = %#x, want %#x", name, taken, wantTaken)
				}
				for r := range wantRegs {
					if w.regs[r] != wantRegs[r] {
						t.Errorf("%s: r%d = %v, want %v", name, r, w.regs[r], wantRegs[r])
					}
				}
				for p := range wantPreds {
					if w.preds[p] != wantPreds[p] {
						t.Errorf("%s: p%d = %v, want %v", name, p, w.preds[p], wantPreds[p])
					}
				}
				if !slices.Equal(cta.global, wantGlobal) || !slices.Equal(cta.shared, wantShared) {
					t.Errorf("%s: memory changed outside the expected words", name)
				}
				if len(fx.sm.stores) != len(wantStores) {
					t.Fatalf("%s: %d deferred stores, want %d", name, len(fx.sm.stores), len(wantStores))
				}
				for i, st := range fx.sm.stores {
					if st.addr != wantStores[i].addr || st.val != wantStores[i].val || &st.mem[0] != &cta.global[0] {
						t.Errorf("%s: store %d = {%d %d}, want {%d %d}", name, i, st.addr, st.val, wantStores[i].addr, wantStores[i].val)
					}
				}
			}
		}
	}
	if covered != isa.NumOpcodes {
		t.Fatalf("covered %d opcodes, want %d", covered, isa.NumOpcodes)
	}
}
