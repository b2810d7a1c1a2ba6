package sim

import (
	"math"
	"math/bits"

	"regmutex/internal/isa"
)

// row is one architected register across a warp's lanes.
type row = [isa.WarpSize]uint64

// execute functionally performs instruction dc for warp w over lanes in
// exec (guard already applied). Branch-taken lanes are returned for
// control-flow handling. Memory traffic goes through the SM's device.
//
// Each source operand resolves once to a register row or to its
// pre-broadcast immediate row (decodeKernel), the destination row
// resolves once, and the opcode switch runs once per warp instruction;
// each case then loops over the set bits of exec.
func (sm *SM) execute(w *Warp, dc *decoded, exec laneMask) (taken laneMask) {
	in := dc.in
	var a, b, c *row
	switch dc.nsrc {
	case 3:
		c = dc.source(w, 2)
		fallthrough
	case 2:
		b = dc.source(w, 1)
		fallthrough
	case 1:
		a = dc.source(w, 0)
	}
	var d *row
	if dc.flags&flagDst != 0 {
		d = &w.regs[in.Dst]
	}

	switch in.Op {
	case isa.OpNop, isa.OpExit, isa.OpBarSync, isa.OpAcq, isa.OpRel:
		// EXIT is handled by the caller via exitLanes; BAR/ACQ/REL at
		// issue by the SM and the policy.
	case isa.OpMov:
		un(exec, d, a, func(x uint64) uint64 { return x })
	case isa.OpMovSpecial:
		// Every special register is affine in the lane: v0 + step·lane.
		k := w.CTA.kern
		var v0, step uint64
		switch in.Spec {
		case isa.SpecTID:
			v0, step = uint64(w.ctaIdx*isa.WarpSize), 1
		case isa.SpecNTID:
			v0 = uint64(k.ThreadsPerCTA)
		case isa.SpecCTAID:
			v0 = uint64(w.CTA.ID)
		case isa.SpecNCTAID:
			v0 = uint64(k.GridCTAs)
		case isa.SpecLaneID:
			step = 1
		case isa.SpecWarpID:
			v0 = uint64(w.ctaIdx)
		}
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = v0 + step*uint64(l)
		}
	case isa.OpIAdd:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return x + y })
	case isa.OpISub:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return x - y })
	case isa.OpIMul:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return uint64(int64(x) * int64(y)) })
	case isa.OpIMad:
		tern(exec, d, a, b, c, func(x, y, z uint64) uint64 { return uint64(int64(x)*int64(y) + int64(z)) })
	case isa.OpIMin:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return uint64(min(int64(x), int64(y))) })
	case isa.OpIMax:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return uint64(max(int64(x), int64(y))) })
	case isa.OpIAbs:
		un(exec, d, a, func(x uint64) uint64 {
			if int64(x) < 0 {
				return -x
			}
			return x
		})
	case isa.OpShl:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return x << (y & 63) })
	case isa.OpShr:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return uint64(int64(x) >> (y & 63)) })
	case isa.OpAnd:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return x & y })
	case isa.OpOr:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return x | y })
	case isa.OpXor:
		bin(exec, d, a, b, func(x, y uint64) uint64 { return x ^ y })
	case isa.OpFAdd:
		binF(exec, d, a, b, func(x, y float64) float64 { return x + y })
	case isa.OpFSub:
		binF(exec, d, a, b, func(x, y float64) float64 { return x - y })
	case isa.OpFMul:
		binF(exec, d, a, b, func(x, y float64) float64 { return x * y })
	case isa.OpFFma:
		tern(exec, d, a, b, c, func(x, y, z uint64) uint64 {
			return isa.F2B(isa.B2F(x)*isa.B2F(y) + isa.B2F(z))
		})
	case isa.OpFMin:
		binF(exec, d, a, b, math.Min)
	case isa.OpFMax:
		binF(exec, d, a, b, math.Max)
	case isa.OpFAbs:
		unF(exec, d, a, math.Abs)
	case isa.OpI2F:
		un(exec, d, a, func(x uint64) uint64 { return isa.F2B(float64(int64(x))) })
	case isa.OpF2I:
		un(exec, d, a, func(x uint64) uint64 { return uint64(int64(isa.B2F(x))) })
	case isa.OpFSqrt:
		unF(exec, d, a, func(x float64) float64 { return math.Sqrt(math.Abs(x)) })
	case isa.OpFRcp:
		unF(exec, d, a, func(x float64) float64 {
			if x == 0 {
				x = 1e-30
			}
			return 1 / x
		})
	case isa.OpFSin:
		unF(exec, d, a, math.Sin)
	case isa.OpFCos:
		unF(exec, d, a, math.Cos)
	case isa.OpFExp:
		unF(exec, d, a, func(x float64) float64 { return math.Exp(clampExp(x)) })
	case isa.OpFLog:
		unF(exec, d, a, func(x float64) float64 { return math.Log(math.Abs(x) + 1e-30) })
	case isa.OpSetp:
		p := &w.preds[in.PDst]
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			p[l] = compare(in.Cmp, int64(a[l]), int64(b[l]))
		}
	case isa.OpSetpF:
		p := &w.preds[in.PDst]
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			p[l] = compareF(in.Cmp, isa.B2F(a[l]), isa.B2F(b[l]))
		}
	case isa.OpSelp:
		// The guard is the selector, not an execution filter: the issue
		// path passes the full active mask, and each lane picks by its
		// predicate.
		p := &w.preds[in.Guard.Pred]
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if p[l] != in.Guard.Neg {
				d[l] = a[l]
			} else {
				d[l] = b[l]
			}
		}
	case isa.OpBra:
		taken = exec
	case isa.OpLdGlobal:
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = sm.loadGlobal(w.CTA.global, int64(a[l])+in.Off)
		}
	case isa.OpStGlobal:
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			sm.storeGlobal(w.CTA.global, int64(a[l])+in.Off, b[l])
		}
	case isa.OpLdShared:
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = w.CTA.loadShared(int64(a[l]) + in.Off)
		}
	case isa.OpStShared:
		for m := uint32(exec); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			w.CTA.storeShared(int64(a[l])+in.Off, b[l])
		}
	}
	return taken
}

// un, bin and tern apply f lane-wise over the set bits of exec; unF and
// binF do the same on float64 lane values.
func un(exec laneMask, d, a *row, f func(x uint64) uint64) {
	for m := uint32(exec); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = f(a[l])
	}
}

func bin(exec laneMask, d, a, b *row, f func(x, y uint64) uint64) {
	for m := uint32(exec); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = f(a[l], b[l])
	}
}

func tern(exec laneMask, d, a, b, c *row, f func(x, y, z uint64) uint64) {
	for m := uint32(exec); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = f(a[l], b[l], c[l])
	}
}

func unF(exec laneMask, d, a *row, f func(x float64) float64) {
	for m := uint32(exec); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = isa.F2B(f(isa.B2F(a[l])))
	}
}

func binF(exec laneMask, d, a, b *row, f func(x, y float64) float64) {
	for m := uint32(exec); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = isa.F2B(f(isa.B2F(a[l]), isa.B2F(b[l])))
	}
}

func compare(c isa.CmpOp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	default:
		return a >= b
	}
}

func compareF(c isa.CmpOp, a, b float64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	default:
		return a >= b
	}
}

func clampExp(x float64) float64 { return max(-64, min(x, 64)) }
