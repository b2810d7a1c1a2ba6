package workloads

import "regmutex/internal/isa"

// The Figure 8 set: eight applications whose occupancy is NOT limited by
// registers on the full-size register file (so RegMutex leaves them
// untouched there), but becomes register-limited when the file is halved
// to 64 KB (section IV-B). CTA shapes are calibrated against the halved
// GTX480 model. Their SRPs are small on the halved file, so the peak
// phases stay short pure-ALU bursts.

func init() {
	register(gaussian())
	register(heartwall())
	register(lavamd())
	register(mergesort())
	register(montecarlo())
	register(spmv())
	register(srad())
	register(tpacf())
}

// gaussian models Rodinia's Gaussian elimination row kernel: small
// register budget, a row gather and multiply-subtract tile.
func gaussian() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("gaussian", 12, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 5, 6, 3) // r5..r6: pivot row state
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(7, isa.R(2), 0)
		dependentLoad(b, 7)
		expandPeak(b, 7, 8, 4, 3, iaddOp(b)) // r8..r11
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(120, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "gaussian", PaperRegs: 12, PaperBs: 8,
		Build: build, Input: defaultInput,
	}
}

// heartwall models Rodinia's heart wall tracker: template correlation
// over a shared-memory tile with per-row barriers.
func heartwall() *Workload {
	const threads = 192
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("heartwall", 28, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 17, 3) // r6..r17: template state
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0)
		dependentLoad(b, 5)
		expandPeak(b, 5, 18, 10, 3, iaddOp(b)) // r18..r27
		b.StShared(isa.R(0), 0, isa.R(3))
		b.Bar()
		b.LdShared(5, isa.R(0), 0)
		b.IAdd(3, isa.R(3), isa.R(5))
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(60, scale)
		k.SharedMemWords = 1536
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "heartwall", PaperRegs: 28, PaperBs: 20,
		Build: build, Input: defaultInput,
	}
}

// lavamd models Rodinia's molecular dynamics kernel: per-particle force
// accumulation over neighbour boxes with SFU distance math. Small CTAs
// (64 threads) as in the original code.
func lavamd() *Workload {
	const threads = 64
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("lavamd", 37, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 25, 3) // r6..r25: box parameters
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0)
		dependentLoad(b, 5)
		b.I2F(5, isa.R(5))
		b.FSqrt(5, isa.R(5))
		b.F2I(5, isa.R(5))
		expandPeak(b, 5, 26, 11, 3, iaddOp(b)) // r26..r36
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(240, scale)
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "lavamd", PaperRegs: 37, PaperBs: 28,
		Build: build, Input: defaultInput,
	}
}

// mergesort models the CUDA SDK merge sort's shared-memory merge step.
// Table I's one slowdown case: shared memory binds its occupancy before
// registers do, so the heuristic's split cannot raise residency and
// RegMutex only adds acquire/release instruction overhead.
func mergesort() *Workload {
	const threads = 512
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("mergesort", 15, 1, threads)
		prologue(b, threads)
		// r5..r11: run bounds, kept live across the barrier so the
		// deadlock-avoidance rule pins |Bs| >= 11.
		fold := pinLongLived(b, 0, 5, 11, 3)
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(12, isa.R(2), 0)
		b.LdGlobal(13, isa.R(2), 31)
		// Binary-search rank computation of the merge step.
		for i := 0; i < 6; i++ {
			b.Shr(13, isa.R(12), isa.Imm(1))
			b.IAdd(12, isa.R(13), isa.Imm(int64(i+1)))
			b.IMad(3, isa.R(3), isa.Imm(1), isa.Imm(2))
		}
		// The merge distance spills into the lone extended register.
		b.ISub(14, isa.R(12), isa.R(13))
		b.IAbs(14, isa.R(14))
		b.IAdd(3, isa.R(3), isa.R(14))
		b.StShared(isa.R(0), 0, isa.R(3))
		b.Bar()
		b.LdShared(12, isa.R(0), 0)
		// Second run's rank lands in the extended register too.
		b.ISub(14, isa.R(12), isa.R(3))
		b.IAbs(14, isa.R(14))
		b.IAdd(3, isa.R(3), isa.R(14))
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(60, scale)
		k.SharedMemWords = 2048
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "mergesort", PaperRegs: 15, PaperBs: 12,
		Build: build, Input: defaultInput,
	}
}

// montecarlo models the CUDA SDK Monte Carlo option pricer: exp/log path
// evaluation with a small register budget.
func montecarlo() *Workload {
	const threads = 320
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("montecarlo", 13, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 5, 8, 3) // r5..r8: option params
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(9, isa.R(2), 0)
		dependentLoad(b, 9)
		b.I2F(10, isa.R(9))
		b.FLog(10, isa.R(10))
		b.FExp(11, isa.R(10))
		b.FAdd(11, isa.R(11), isa.R(10))
		b.F2I(12, isa.R(11)) // r12 is the lone extended register
		b.IAdd(3, isa.R(3), isa.R(12))
		b.IAdd(3, isa.R(3), isa.R(9))
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
		Name: "montecarlo", PaperRegs: 13, PaperBs: 12,
		Build: build, Input: defaultInput,
	}
}

// spmv models Parboil's sparse matrix-vector multiply: indirect gathers
// (column index, then the vector element) — latency-bound with dependent
// loads.
func spmv() *Workload {
	const threads = 320
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("spmv", 16, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 5, 9, 3) // r5..r9: row pointers
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(10, isa.R(2), 0) // column index
		dependentLoad(b, 10)        // x[col]
		b.IMul(11, isa.R(10), isa.Imm(7))
		// CSR row scaling.
		for i := 0; i < 8; i++ {
			b.Shr(11, isa.R(11), isa.Imm(1))
			b.IAdd(11, isa.R(11), isa.R(10))
		}
		expandPeak(b, 11, 12, 4, 3, iaddOp(b)) // r12..r15
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
		Name: "spmv", PaperRegs: 16, PaperBs: 12,
		Build: build, Input: defaultInput,
	}
}

// srad models Rodinia's speckle-reducing anisotropic diffusion: a stencil
// gather feeding an 8-register derivative tile.
func srad() *Workload {
	const threads = 256
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("srad", 18, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 5, 8, 3) // r5..r8: diffusion coeffs
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(12))
		b.Label("top")
		b.LdGlobal(9, isa.R(2), 0)
		dependentLoad(b, 9)
		// Diffusion coefficient arithmetic on the gathered value.
		for i := 0; i < 9; i++ {
			b.IMad(9, isa.R(9), isa.Imm(3), isa.Imm(1))
			b.Shr(9, isa.R(9), isa.Imm(1))
		}
		expandPeak(b, 9, 10, 8, 3, iaddOp(b)) // r10..r17
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
		Name: "srad", PaperRegs: 18, PaperBs: 12,
		Build: build, Input: defaultInput,
	}
}

// tpacf models Parboil's two-point angular correlation function:
// histogram binning with sqrt/log distance math over a shared staging
// tile (no barrier in the hot loop, unlike heartwall).
func tpacf() *Workload {
	const threads = 192
	build := func(scale int) *isa.Kernel {
		b := isa.NewBuilder("tpacf", 28, 1, threads)
		prologue(b, threads)
		fold := pinLongLived(b, 0, 6, 17, 3) // r6..r17: bin boundaries
		b.Mov(3, isa.Imm(0))
		b.And(4, isa.R(1), isa.Imm(7)) // CTA-dependent load imbalance
		b.IAdd(4, isa.R(4), isa.Imm(10))
		b.Label("top")
		b.LdGlobal(5, isa.R(2), 0)
		dependentLoad(b, 5)
		b.I2F(5, isa.R(5))
		b.FSqrt(5, isa.R(5))
		b.FLog(5, isa.R(5))
		b.F2I(5, isa.R(5))
		expandPeak(b, 5, 18, 10, 3, iaddOp(b)) // r18..r27
		b.StShared(isa.R(0), 0, isa.R(3))
		loopFooter(b, threads, 1)
		fold()
		// Results land at the thread's global id, recomputed from the
		// launch coordinates (which therefore stay live for the whole
		// kernel, like real output pointers).
		b.IMad(5, isa.R(1), isa.Imm(int64(threads)), isa.R(0))
		b.StGlobal(isa.R(5), storeBase, isa.R(3))
		b.Exit()
		k := b.MustKernel()
		k.GridCTAs = scaled(60, scale)
		k.SharedMemWords = 1536
		k.GlobalMemWords = memWords(k)
		return k
	}
	return &Workload{
		Name: "tpacf", PaperRegs: 28, PaperBs: 20,
		Build: build, Input: defaultInput,
	}
}
