package workloads

import "regmutex/internal/isa"

// The Figure 7 set: eight applications whose theoretical occupancy is
// limited by register demand on the full-size register file (section
// IV-A). CTA shapes are calibrated so the |Es| heuristic reproduces the
// Table I base-set sizes on the GTX480 model.
//
// Loop shape shared by the kernels (mirroring the Figure 1 profiles):
// each iteration spends most of its time in a *base phase* — independent
// plus dependent global loads and app-flavoured ALU/SFU work on base-set
// registers — and then bursts through a short *peak phase* where a tile
// of intermediates materialises in the upper registers and is reduced
// away. The peak is what forces the kernel's high register demand, while
// the base phase carries the memory latency that extra warps hide.
//
// Common register roles:
//
//	r0  tid          r1 ctaid       r2 gid / stream address
//	r3  accumulator  r4 loop count  r5 (+app scratch) base-phase values
//	[pinned]         long-lived parameter state, live to the end
//	[peak]           the short-lived tile of Figure 1's peaks
const (
	memMask   = 1<<15 - 1 // load region word-space (power of two)
	storeBase = 1 << 16   // per-thread results land here, clear of all loads
)

// memWords sizes k's global memory: the load region below storeBase,
// then one result word per thread of the grid, so no store wraps onto
// the inputs.
func memWords(k *isa.Kernel) int { return storeBase + k.GridCTAs*k.ThreadsPerCTA }

// Regrid relaunches a built workload kernel over ctas CTAs and re-sizes
// its global memory so the result region still holds one word per
// thread.
func Regrid(k *isa.Kernel, ctas int) {
	k.GridCTAs = ctas
	k.GlobalMemWords = memWords(k)
}

func prologue(b *isa.Builder, threads int) {
	b.MovSpecial(0, isa.SpecTID)
	b.MovSpecial(1, isa.SpecCTAID)
	b.IMad(2, isa.R(1), isa.Imm(int64(threads)), isa.R(0)) // gid
	b.And(2, isa.R(2), isa.Imm(memMask))
}

// loopFooter advances the stream address, decrements, and branches back.
func loopFooter(b *isa.Builder, threads, stride int) {
	b.IAdd(2, isa.R(2), isa.Imm(int64(threads*stride)))
	b.And(2, isa.R(2), isa.Imm(memMask))
	b.ISub(4, isa.R(4), isa.Imm(1))
	b.Setp(0, isa.CmpGT, isa.R(4), isa.Imm(0))
	b.BraIf(0, "top")
}

// dependentLoad emits the a[b[i]] pattern: reload through the just-loaded
// value, masked into the load region. The chained latency is what makes
// these kernels occupancy-hungry.
func dependentLoad(b *isa.Builder, reg isa.Reg) {
	b.And(reg, isa.R(reg), isa.Imm(memMask))
	b.LdGlobal(reg, isa.R(reg), 0)
}

func init() {
	register(bfs())
	register(cutcp())
	register(dwt2d())
	register(hotspot3d())
	register(mriq())
	register(particlefilter())
	register(radixsort())
	register(sad())
}

// bfs models the Parboil breadth-first search: a frontier sweep with a
// data-dependent visit test (heavy divergence), an indirect neighbour
// gather, and almost no arithmetic — the most latency-bound kernel of the
// set and the paper's biggest winner (23% cycle reduction).
func bfs() *Workload {
	const threads = 512
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("bfs", 21, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 7, 13, 3) // r7..r13: graph metadata
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0) // frontier flag
		b.And(6, isa.R(5), isa.Imm(1))
		b.Setp(0, isa.CmpEQ, isa.R(6), isa.Imm(0))
		b.BraIf(0, "skip")
		// Visited: two-level indirect neighbour gather (row pointer,
		// then edge record), then the register peak.
		b.Mov(6, isa.R(5))
		dependentLoad(b, 6)
		dependentLoad(b, 6)
		expandPeak(b, 6, 14, 7, 3, iaddOp(b)) // r14..r20
		b.Label("skip")
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(90, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "bfs", PaperRegs: 21, PaperBs: 18, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}

// cutcp models Parboil's cutoff Coulombic potential: a gathered atom
// record, SFU distance math (sqrt + reciprocal), and a 9-register
// intermediate tile.
func cutcp() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("cutcp", 25, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 15, 3) // r6..r15: lattice params
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0) // atom bin
		dependentLoad(b, 5)        // atom index
		dependentLoad(b, 5)        // atom record
		b.I2F(5, isa.R(5))
		b.FSqrt(5, isa.R(5)) // distance
		b.FRcp(5, isa.R(5))  // 1/r
		// Per-atom polynomial of the cutoff kernel (FFMA-heavy, two
		// interleaved accumulator chains).
		for i := 0; i < 12; i++ {
			b.FFma(5, isa.R(5), isa.FImm(0.98), isa.FImm(0.01))
			b.IMad(3, isa.R(3), isa.Imm(1), isa.Imm(3))
		}
		b.F2I(5, isa.R(5))
		expandPeak(b, 5, 16, 9, 3, iaddOp(b)) // r16..r24
		loopFooter(b, threads, 2)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(180, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "cutcp", PaperRegs: 25, PaperBs: 20, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}

// dwt2d models Rodinia's 2-D discrete wavelet transform: the widest
// register tile of Table I (44 registers), a shared-memory staging buffer
// with a CTA barrier per row, and — because its extended set is held
// across an in-peak coefficient load — visible SRP contention, one of the
// applications the paper calls out for acquire pressure.
func dwt2d() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("dwt2d", 44, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 25, 3) // r6..r25: filter banks
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(8))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0)
		// Peak: a filter coefficient lands directly in the top register
		// while the 17-wide tile materialises, so the extended set is
		// held across part of the load latency.
		b.LdGlobal(43, isa.R(2), 7)
		expandPeak(b, 5, 26, 17, 3, iaddOp(b)) // r26..r42
		b.IAdd(3, isa.R(3), isa.R(43))
		// Stage and synchronise the row.
		b.StShared(isa.R(0), 0, isa.R(3))
		b.Bar()
		b.LdShared(5, isa.R(0), 0)
		b.IAdd(3, isa.R(3), isa.R(5))
		loopFooter(b, threads, 2)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(90, scale)
		k.SharedMemWords = 1800
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "dwt2d", PaperRegs: 44, PaperBs: 38, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}

// hotspot3d models Rodinia's 3-D thermal stencil: neighbour-plane loads
// and a 14-register intermediate tile per cell.
func hotspot3d() *Workload {
	const threads = 320
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("hotspot3d", 32, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 17, 3) // r6..r17: conductivities
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0)             // centre plane
		dependentLoad(b, 5)                    // y-neighbour through the index plane
		dependentLoad(b, 5)                    // z-neighbour
		expandPeak(b, 5, 18, 14, 3, iaddOp(b)) // r18..r31
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(180, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "hotspot3d", PaperRegs: 32, PaperBs: 24, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}

// mriq models Parboil's MRI Q-matrix computation: SFU work (sin and cos
// per sample) between the gathers and an 8-register tile.
func mriq() *Workload {
	const threads = 512
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("mriq", 21, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 11, 3) // r6..r11: kVals
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0) // sample index
		dependentLoad(b, 5)        // phi sample
		b.FSin(12, isa.R(5))
		b.FCos(12, isa.R(12))
		b.F2I(12, isa.R(12))
		b.IAdd(12, isa.R(12), isa.R(5))
		// Q-matrix accumulation (independent integer chain).
		for i := 0; i < 8; i++ {
			b.IMad(3, isa.R(3), isa.Imm(1), isa.Imm(5))
		}
		expandPeak(b, 12, 13, 8, 3, iaddOp(b)) // r13..r20
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(90, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "mriq", PaperRegs: 21, PaperBs: 18, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}

// particlefilter models Rodinia's particle filter: a divergent resampling
// test guarding an indirect gather, with exp/log likelihood math executed
// while the 14-register particle tile is live — holding the large
// |Es| = 12 extended set long enough to contend for its few SRP sections,
// as the paper observes.
func particlefilter() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("particlefilter", 32, 2, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 17, 3) // r6..r17: model state
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0) // u ~ random (float)
		b.SetpF(1, isa.CmpLT, isa.R(5), isa.FImm(110.0))
		b.BraIfNot(1, "skip")
		// Gather the weight, materialise the particle tile, then
		// evaluate the exp/log likelihood while the tile is live — the
		// extended set is held across the SFU chain, which is what
		// contends for the few SRP sections |Es| = 12 leaves.
		b.F2I(5, isa.R(5))
		dependentLoad(b, 5)
		for i := 0; i < 14; i++ {
			b.IAdd(isa.Reg(18+i), isa.R(5), isa.Imm(int64(i*13+5)))
		}
		b.I2F(5, isa.R(5))
		b.FLog(5, isa.R(5))
		b.FExp(5, isa.R(5))
		b.F2I(5, isa.R(5))
		b.IAdd(3, isa.R(3), isa.R(5))
		for i := 0; i < 14; i++ {
			b.IAdd(3, isa.R(3), isa.R(isa.Reg(18+i)))
		}
		b.Label("skip")
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(180, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "particlefilter", PaperRegs: 32, PaperBs: 20, RegisterLimited: true,
		Build: build, Input: floatInput(0, 200),
	}
}

// radixsort models the CUDA SDK radix sort pass: digit extraction, a
// shared-memory key exchange, and CTA barriers each round. The barrier
// keeps a large live set, which is what pins |Bs| high (the
// deadlock-avoidance rule of section III-A2).
func radixsort() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("radixsort", 33, 1, threads)
		prologue(b, threads)
		// Large pinned set (r5..r26): the per-round digit state that
		// stays live across the barriers.
		fold := pinLongLived(b, 0, 5, 26, 3)
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(8))
		b.Label("top")
		b.LdGlobal(27, isa.R(2), 0) // key pointer
		dependentLoad(b, 27)        // key
		b.Shr(28, isa.R(27), isa.Imm(4))
		b.And(28, isa.R(28), isa.Imm(int64(threads-1))) // digit-derived slot
		// Publish the key, then read a peer's key after the barrier.
		// Every slot has exactly one writer (tid), so the exchange is
		// deterministic under any warp schedule.
		b.StShared(isa.R(0), 0, isa.R(27))
		b.Bar()
		b.LdShared(29, isa.R(28), 0)
		b.IAdd(30, isa.R(29), isa.R(27))
		b.Shl(31, isa.R(30), isa.Imm(1))
		b.IMax(32, isa.R(31), isa.R(29))
		b.IAdd(3, isa.R(3), isa.R(32))
		b.Bar()
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(180, scale)
		k.SharedMemWords = threads
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "radixsort", PaperRegs: 33, PaperBs: 30, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}

// sad models Parboil's sum-of-absolute-differences: reference and current
// macroblock rows expand into a 16-register tile. Its |Es| = 12 leaves
// very few SRP sections (5 on the baseline), which is the paper's
// explanation for SAD's muted gains despite a full occupancy boost.
func sad() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("sad", 30, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 13, 3) // r6..r13: search window
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0) // reference row base
		dependentLoad(b, 5)        // reference pixels
		for i := 0; i < 16; i++ {
			b.IAdd(isa.Reg(14+i), isa.R(5), isa.Imm(int64(i*7+1)))
		}
		// |ref - cur| reduction over the tile: a serial chain, so the
		// extended set stays held for the whole macroblock comparison.
		b.ISub(14, isa.R(14), isa.R(29))
		b.IAbs(14, isa.R(14))
		for i := 1; i < 16; i++ {
			b.ISub(14, isa.R(14), isa.R(isa.Reg(14+i)))
			b.IAbs(14, isa.R(14))
		}
		b.IMin(3, isa.R(3), isa.R(14))
		b.IAdd(3, isa.R(3), isa.Imm(1))
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(180, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "sad", PaperRegs: 30, PaperBs: 20, RegisterLimited: true,
		Build: build, Input: defaultInput,
	}
}
