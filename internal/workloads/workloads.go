// Package workloads provides the sixteen benchmark kernels of the paper's
// Table I, rebuilt as synthetic equivalents in our ISA. The original CUDA
// binaries (Rodinia, Parboil, CUDA SDK) cannot run here, so each kernel is
// hand-written to match what the evaluation actually depends on: the
// per-thread architected register count, the live-register profile over
// time (Figure 1), the CTA shape and shared-memory footprint that set
// theoretical occupancy, and the memory/compute/divergence mix that
// determines how much latency hiding extra warps buy.
package workloads

import (
	"fmt"
	"sort"

	"regmutex/internal/isa"
)

// Workload is one Table I application.
type Workload struct {
	Name string

	// PaperRegs / PaperBs are Table I's columns: registers per thread
	// (raw) and the |Bs| the paper's heuristic chose.
	PaperRegs int
	PaperBs   int

	// RegisterLimited marks the Figure 7 set (occupancy limited by
	// register demand on the full-size register file); the remaining
	// applications form the Figure 8 half-register-file set.
	RegisterLimited bool

	// Build constructs the kernel. scale >= 1 shrinks the grid (and so
	// simulation time) for tests and benchmarks; scale 1 is the full
	// evaluation size.
	Build func(scale int) *isa.Kernel

	// Input fills global memory deterministically for the kernel.
	Input func(k *isa.Kernel, seed uint64) []uint64
}

// registry in Table I order (left column then right column).
var registry []*Workload

func register(w *Workload) { registry = append(registry, w) }

// All returns every workload, in a stable order.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Fig7Set returns the eight register-limited applications of section IV-A.
func Fig7Set() []*Workload { return filter(true) }

// Fig8Set returns the eight applications of the register-file-size
// reduction study (section IV-B).
func Fig8Set() []*Workload { return filter(false) }

func filter(limited bool) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.RegisterLimited == limited {
			out = append(out, w)
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists all workload names.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	return out
}

// ---------------------------------------------------------------------
// Deterministic input generation.
// ---------------------------------------------------------------------

// prng is a small xorshift64* generator; deterministic and stdlib-free of
// global state so runs are reproducible.
type prng struct{ s uint64 }

func newPrng(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &prng{s: seed}
}

func (p *prng) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (p *prng) intn(n int) uint64 { return p.next() % uint64(n) }

// f01 returns a float in [0, 1).
func (p *prng) f01() float64 { return float64(p.next()>>11) / (1 << 53) }

// defaultInput fills memory with small integers; kernels that need
// floats or structure override Input.
func defaultInput(k *isa.Kernel, seed uint64) []uint64 {
	g := make([]uint64, k.GlobalMemWords)
	p := newPrng(seed)
	for i := range g {
		g[i] = p.intn(1 << 16)
	}
	return g
}

// floatInput fills memory with floats in [lo, hi).
func floatInput(lo, hi float64) func(*isa.Kernel, uint64) []uint64 {
	return func(k *isa.Kernel, seed uint64) []uint64 {
		g := make([]uint64, k.GlobalMemWords)
		p := newPrng(seed)
		for i := range g {
			g[i] = isa.F2B(lo + (hi-lo)*p.f01())
		}
		return g
	}
}

func scaled(n, scale int) int {
	if scale < 1 {
		scale = 1
	}
	n /= scale
	if n < 1 {
		n = 1
	}
	return n
}

// ---------------------------------------------------------------------
// Kernel-construction helpers shared by the workload definitions.
// ---------------------------------------------------------------------

// expandPeak emits the canonical short-lived register peak: n independent
// ALU expansions of a base-set value into the consecutive registers
// [first, first+n) — a compiler materialising a tile of intermediates —
// followed by a pairwise reduction tree into dst. It touches no memory,
// so the acquire region it creates is a short ALU burst, matching the
// episodic peaks of Figure 1.
func expandPeak(b *isa.Builder, src isa.Reg, first isa.Reg, n int, dst isa.Reg, op func(d, a, c isa.Reg)) {
	for i := 0; i < n; i++ {
		b.IAdd(first+isa.Reg(i), isa.R(src), isa.Imm(int64(i*13+5)))
	}
	width := n
	for width > 1 {
		half := width / 2
		for i := 0; i < half; i++ {
			op(first+isa.Reg(i), first+isa.Reg(i), first+isa.Reg(width-1-i))
		}
		width -= half
	}
	if dst != first {
		op(dst, dst, first)
	}
}

// iaddOp returns an integer-add combiner for expandPeak on builder b.
func iaddOp(b *isa.Builder) func(d, a, c isa.Reg) {
	return func(d, a, c isa.Reg) { b.IAdd(d, isa.R(a), isa.R(c)) }
}

// pinLongLived emits definitions for registers [lo, hi] from cheap
// arithmetic on seedReg and returns a closure that consumes all of them
// into acc at the end (keeping them live for the whole kernel, like the
// parameter/pointer state real kernels carry).
func pinLongLived(b *isa.Builder, seedReg isa.Reg, lo, hi int, acc isa.Reg) func() {
	for r := lo; r <= hi; r++ {
		b.IAdd(isa.Reg(r), isa.R(seedReg), isa.Imm(int64(r*17+3)))
	}
	return func() {
		for r := lo; r <= hi; r++ {
			b.IAdd(acc, isa.R(acc), isa.R(isa.Reg(r)))
		}
	}
}
