// Package regmutex is a full reproduction of "RegMutex: Inter-Warp GPU
// Register Time-Sharing" (Khorasani et al., ISCA 2018) — the compiler
// passes, the microarchitecture, the baselines it is compared against,
// and the simulator and workloads needed to regenerate the paper's
// evaluation — implemented from scratch in pure Go.
//
// The package is a facade over the implementation packages:
//
//   - Kernels are authored with NewBuilder or parsed from assembly text
//     with ParseAsm (see internal/asm for the format).
//   - Transform runs the RegMutex compiler pass of section III-A:
//     liveness analysis, extended-set sizing, register index compaction,
//     and acquire/release injection.
//   - New + Run simulate a kernel on a Fermi-class GPU model under one
//     of the register allocation policies: NewStaticPolicy (the
//     baseline), NewRegMutexPolicy, NewPairedPolicy (section III-C),
//     NewOWFPolicy and NewRFVPolicy (the related work of section IV-C).
//     A DeviceSpec names the machine, timing model, and kernel; options
//     (WithPolicy, WithGlobal, WithObserver) attach the rest. Stats
//     carries the per-cause scheduler-slot stall accounting.
//   - Workloads returns the sixteen Table I applications.
//
// Quick start:
//
//	k, _ := regmutex.ParseAsm(src)
//	cfg := regmutex.GTX480()
//	res, _ := regmutex.Transform(k, regmutex.Options{Config: cfg})
//	dev, _ := regmutex.New(
//	    regmutex.DeviceSpec{Config: cfg, Timing: regmutex.DefaultTiming(), Kernel: res.Kernel},
//	    regmutex.WithPolicy(regmutex.NewRegMutexPolicy(cfg)))
//	stats, _ := dev.Run()
//	fmt.Println(stats.Cycles, stats.Stall)
//
// To watch a run, attach an observer before New; ObserverFuncs adapts
// plain functions:
//
//	obs := regmutex.ObserverFuncs{Event: func(ev regmutex.DeviceEvent) { fmt.Println(ev.Kind) }}
//	dev, _ := regmutex.New(spec, regmutex.WithPolicy(pol), regmutex.WithObserver(obs))
//
// For a cycle-level Chrome trace (Perfetto-loadable), run the gpusim
// command with -trace.
package regmutex

import (
	"regmutex/internal/asm"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// Kernel program model (see internal/isa).
type (
	// Kernel is a GPU kernel: code plus launch resources.
	Kernel = isa.Kernel
	// Reg is an architected register index.
	Reg = isa.Reg
)

// NewBuilder starts a kernel with the given name and resource shape
// (architected registers, predicate registers, threads per CTA).
func NewBuilder(name string, numRegs, numPRegs, threadsPerCTA int) *isa.Builder {
	return isa.NewBuilder(name, numRegs, numPRegs, threadsPerCTA)
}

// R makes a register operand for the Builder.
func R(r Reg) isa.Operand { return isa.R(r) }

// Imm makes an integer immediate operand.
func Imm(v int64) isa.Operand { return isa.Imm(v) }

// Comparison operators for Builder.Setp / Builder.SetpF.
const (
	CmpLT = isa.CmpLT
	CmpGT = isa.CmpGT
)

// Special hardware registers for Builder.MovSpecial.
const (
	SpecTID   = isa.SpecTID
	SpecCTAID = isa.SpecCTAID
)

// ParseAsm assembles kernel text (see internal/asm for the format).
func ParseAsm(src string) (*Kernel, error) { return asm.Parse(src) }

// FormatAsm renders a kernel as assembly text; ParseAsm round-trips it.
func FormatAsm(k *Kernel) string { return asm.Format(k) }

// Config describes the simulated GPU (see internal/occupancy).
type Config = occupancy.Config

// GTX480 is the paper's baseline machine: 15 SMs, 128 KB register file
// per SM, 48 warp slots, 2 greedy-then-oldest schedulers.
func GTX480() Config { return occupancy.GTX480() }

// GTX480Half is the register-file-size-reduction machine of section IV-B.
func GTX480Half() Config { return occupancy.GTX480Half() }

// Occupancy computes the kernel's theoretical occupancy under static
// allocation on the given machine.
func Occupancy(c Config, k *Kernel) occupancy.Result { return occupancy.Baseline(c, k) }

// Options configures Transform (see internal/core).
type Options = core.Options

// Transform runs the RegMutex compiler pipeline of paper section III-A on
// k: liveness analysis, extended-set size selection, register index
// compaction, and acquire/release injection. k is not modified.
func Transform(k *Kernel, opt Options) (*core.Result, error) { return core.Transform(k, opt) }

// Prepare annotates a kernel for simulation without the RegMutex pass
// (reconvergence points and dead-value metadata); use it for baseline,
// OWF, and RFV runs.
func Prepare(k *Kernel) (*Kernel, error) { return core.Prepare(k) }

// The simulator (see internal/sim).
type (
	// DeviceSpec names the machine, timing model, and kernel of a run;
	// pass it to New with options for everything else.
	DeviceSpec = sim.DeviceSpec
	// Stats summarises a finished run.
	Stats = sim.Stats
	// Policy decides how physical registers are allocated.
	Policy = sim.Policy
	// DeviceEvent is a coarse structural notification (CTA launches and
	// retirements, extended-set acquires and releases) delivered to an
	// attached observer.
	DeviceEvent = sim.Event
	// ObserverFuncs adapts plain functions to an observer of a run's
	// events, utilisation samples and per-cycle stall attribution.
	ObserverFuncs = sim.ObserverFuncs
)

// DefaultTiming returns the timing model used in the evaluation.
func DefaultTiming() sim.Timing { return sim.DefaultTiming() }

// New builds a device from the spec and options; this is the canonical
// constructor. With no WithPolicy option the static baseline is used;
// with no WithGlobal option a zero-filled heap sized by the kernel is
// allocated.
func New(spec DeviceSpec, opts ...sim.Option) (*sim.Device, error) { return sim.New(spec, opts...) }

// WithPolicy selects the register-allocation policy for New.
func WithPolicy(p Policy) sim.Option { return sim.WithPolicy(p) }

// WithGlobal provides the device's global memory contents (the workload
// input).
func WithGlobal(g []uint64) sim.Option { return sim.WithGlobal(g) }

// WithObserver attaches an instrumentation observer; repeat the option
// to attach several.
func WithObserver(o sim.Observer) sim.Option { return sim.WithObserver(o) }

// NewMultiDevice co-schedules CTAs of several dissimilar kernels on the
// same SMs. Per paper section IV, RegMutex does not support this mode:
// kernels must carry no extended set (use Prepare, not Transform), and
// execution falls back to static, exclusive allocation. Each kernel gets
// its own global memory; read results back with Device.GlobalOf. The
// options are New's, less WithPolicy and WithGlobal, which it refuses.
func NewMultiDevice(cfg Config, t sim.Timing, kernels []*Kernel, globals [][]uint64, opts ...sim.Option) (*sim.Device, error) {
	return sim.NewMultiDevice(cfg, t, kernels, globals, opts...)
}

// NewStaticPolicy is the baseline static, exclusive register allocation.
func NewStaticPolicy(cfg Config) Policy { return sim.NewStaticPolicy(cfg) }

// NewRegMutexPolicy time-shares extended register sets out of the Shared
// Register Pool (sections III-B1 and III-B2). The kernel must have been
// compiled with Transform.
func NewRegMutexPolicy(cfg Config) Policy { return sim.NewRegMutexPolicy(cfg) }

// NewPairedPolicy is the paired-warps specialisation (section III-C).
func NewPairedPolicy(cfg Config) Policy { return sim.NewPairedPolicy(cfg) }

// NewOWFPolicy models the resource sharing scheme of Jatala et al. with
// Owner Warp First scheduling; threshold is the shared-register boundary.
func NewOWFPolicy(cfg Config, threshold int) Policy { return sim.NewOWFPolicy(cfg, threshold) }

// NewRFVPolicy models register file virtualization (Jeon et al.).
func NewRFVPolicy(cfg Config) Policy { return sim.NewRFVPolicy(cfg) }

// Workloads returns the sixteen Table I applications (see
// internal/workloads).
func Workloads() []*workloads.Workload { return workloads.All() }

// WorkloadByName finds one Table I application.
func WorkloadByName(name string) (*workloads.Workload, error) { return workloads.ByName(name) }
