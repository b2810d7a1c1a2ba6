package sim

import (
	"math"
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
