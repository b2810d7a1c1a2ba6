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
//     (WithPolicy, WithGlobal, WithObserver, WithAudit) attach the rest.
//   - The observability layer (Observer, NewTrace + NewCollector,
//     WriteChromeTrace, NewMetrics) records per-cycle stall attribution,
//     structural events, and counters from a run; StallBreakdown in
//     Stats carries the per-cause scheduler-slot accounting.
//   - Workloads returns the sixteen Table I applications; the harness
//     functions (Fig7, Fig8, ...) regenerate each of the paper's tables
//     and figures.
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
// To capture a cycle-level trace of the run, attach a collector before
// New and export it afterwards:
//
//	trace := regmutex.NewTrace(0)
//	col := regmutex.NewCollector(trace)
//	dev, _ := regmutex.New(spec, regmutex.WithPolicy(pol), regmutex.WithObserver(col))
//	stats, _ := dev.Run()
//	col.Flush(stats.Cycles)
//	regmutex.WriteChromeTrace(f, trace.Events()) // open f in ui.perfetto.dev
package regmutex

import (
	"io"

	"regmutex/internal/asm"
	"regmutex/internal/core"
	"regmutex/internal/energy"
	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/obs"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// Kernel program model (see internal/isa).
type (
	// Kernel is a GPU kernel: code plus launch resources.
	Kernel = isa.Kernel
	// Builder assembles kernels programmatically.
	Builder = isa.Builder
	// Instr is one machine instruction.
	Instr = isa.Instr
	// Reg is an architected register index.
	Reg = isa.Reg
	// RegSet is a bitset of architected registers.
	RegSet = isa.RegSet
	// Operand is an instruction source operand.
	Operand = isa.Operand
)

// NewBuilder starts a kernel with the given name and resource shape
// (architected registers, predicate registers, threads per CTA).
func NewBuilder(name string, numRegs, numPRegs, threadsPerCTA int) *Builder {
	return isa.NewBuilder(name, numRegs, numPRegs, threadsPerCTA)
}

// R makes a register operand for the Builder.
func R(r Reg) Operand { return isa.R(r) }

// Imm makes an integer immediate operand.
func Imm(v int64) Operand { return isa.Imm(v) }

// FImm makes a floating-point immediate operand.
func FImm(v float64) Operand { return isa.FImm(v) }

// Comparison operators for Builder.Setp / Builder.SetpF.
const (
	CmpEQ = isa.CmpEQ
	CmpNE = isa.CmpNE
	CmpLT = isa.CmpLT
	CmpLE = isa.CmpLE
	CmpGT = isa.CmpGT
	CmpGE = isa.CmpGE
)

// Special hardware registers for Builder.MovSpecial.
const (
	SpecTID    = isa.SpecTID
	SpecNTID   = isa.SpecNTID
	SpecCTAID  = isa.SpecCTAID
	SpecNCTAID = isa.SpecNCTAID
	SpecLaneID = isa.SpecLaneID
	SpecWarpID = isa.SpecWarpID
)

// ParseAsm assembles kernel text (see internal/asm for the format).
func ParseAsm(src string) (*Kernel, error) { return asm.Parse(src) }

// FormatAsm renders a kernel as assembly text; ParseAsm round-trips it.
func FormatAsm(k *Kernel) string { return asm.Format(k) }

// Machine configuration (see internal/occupancy).
type (
	// Config describes the simulated GPU.
	Config = occupancy.Config
	// OccupancyResult is a theoretical occupancy computation.
	OccupancyResult = occupancy.Result
)

// GTX480 is the paper's baseline machine: 15 SMs, 128 KB register file
// per SM, 48 warp slots, 2 greedy-then-oldest schedulers.
func GTX480() Config { return occupancy.GTX480() }

// GTX480Half is the register-file-size-reduction machine of section IV-B.
func GTX480Half() Config { return occupancy.GTX480Half() }

// K20 is a Kepler-class machine used by the generality study: twice the
// registers, but also twice the warp slots, so kernels above 32 registers
// per thread stay occupancy-limited (paper section IV's argument).
func K20() Config { return occupancy.K20() }

// Occupancy computes the kernel's theoretical occupancy under static
// allocation on the given machine.
func Occupancy(c Config, k *Kernel) OccupancyResult { return occupancy.Baseline(c, k) }

// The RegMutex compiler (see internal/core).
type (
	// Options configures Transform.
	Options = core.Options
	// Result is the outcome of the RegMutex pass.
	Result = core.Result
	// Split is a chosen |Bs| / |Es| division.
	Split = core.Split
)

// Transform runs the RegMutex compiler pipeline of paper section III-A on
// k: liveness analysis, extended-set size selection, register index
// compaction, and acquire/release injection. k is not modified.
func Transform(k *Kernel, opt Options) (*Result, error) { return core.Transform(k, opt) }

// Prepare annotates a kernel for simulation without the RegMutex pass
// (reconvergence points and dead-value metadata); use it for baseline,
// OWF, and RFV runs.
func Prepare(k *Kernel) (*Kernel, error) { return core.Prepare(k) }

// The simulator (see internal/sim).
type (
	// Device is a simulated GPU.
	Device = sim.Device
	// DeviceSpec names the machine, timing model, and kernel of a run;
	// pass it to New with options for everything else.
	DeviceSpec = sim.DeviceSpec
	// DeviceOption configures New (WithPolicy, WithGlobal, WithObserver,
	// WithAudit, WithSampleInterval).
	DeviceOption = sim.Option
	// Stats summarises a finished run.
	Stats = sim.Stats
	// Timing is the latency/structural model.
	Timing = sim.Timing
	// Policy decides how physical registers are allocated.
	Policy = sim.Policy
	// DeviceEvent is a coarse structural notification (CTA launches and
	// retirements, extended-set acquires and releases) delivered to an
	// attached Observer.
	DeviceEvent = sim.Event
	// Sample is a periodic utilisation snapshot delivered to an attached
	// Observer.
	Sample = sim.Sample
)

// The instrumentation surface (see internal/sim and internal/obs).
type (
	// Observer receives a run's instrumentation stream: structural
	// events, utilisation samples, and per-cycle scheduler-slot stall
	// attribution. Attach one with WithObserver.
	Observer = sim.Observer
	// ObserverFuncs adapts plain functions to Observer.
	ObserverFuncs = sim.ObserverFuncs
	// StallCause identifies what a scheduler slot spent a cycle on.
	StallCause = sim.StallCause
	// StallBreakdown counts scheduler-slot cycles per cause; it sums to
	// cycles × schedulers exactly.
	StallBreakdown = sim.StallBreakdown
	// StallSlot is one scheduler slot's attribution for one cycle.
	StallSlot = sim.StallSlot
	// Trace is a bounded ring buffer of structured trace events.
	Trace = obs.Trace
	// TraceEvent is one record in a Trace.
	TraceEvent = obs.TraceEvent
	// Collector assembles a run's instrumentation into a Trace; attach
	// with WithObserver and call Flush after Run.
	Collector = obs.Collector
	// Metrics is a registry of named counters and gauges.
	Metrics = obs.Registry
	// MetricsReport is a snapshot of a Metrics registry, exportable as
	// JSON or CSV.
	MetricsReport = obs.MetricsReport
)

// Scheduler-slot stall causes (see StallCause).
const (
	CauseIssued     = sim.CauseIssued
	CauseScoreboard = sim.CauseScoreboard
	CauseMemory     = sim.CauseMemory
	CauseAcquire    = sim.CauseAcquire
	CauseBarrier    = sim.CauseBarrier
	CauseNoWarp     = sim.CauseNoWarp
	CauseEmpty      = sim.CauseEmpty
)

// DefaultTiming returns the timing model used in the evaluation.
func DefaultTiming() Timing { return sim.DefaultTiming() }

// New builds a device from the spec and options; this is the canonical
// constructor. With no WithPolicy option the static baseline is used;
// with no WithGlobal option a zero-filled heap sized by the kernel is
// allocated.
func New(spec DeviceSpec, opts ...DeviceOption) (*Device, error) { return sim.New(spec, opts...) }

// WithPolicy selects the register-allocation policy for New.
func WithPolicy(p Policy) DeviceOption { return sim.WithPolicy(p) }

// WithGlobal provides the device's global memory contents (the workload
// input).
func WithGlobal(g []uint64) DeviceOption { return sim.WithGlobal(g) }

// WithObserver attaches an instrumentation observer; repeat the option
// to attach several.
func WithObserver(o Observer) DeviceOption { return sim.WithObserver(o) }

// WithSampleInterval sets how often (in cycles) utilisation samples are
// delivered to Observer.OnCycleSample.
func WithSampleInterval(n int64) DeviceOption { return sim.WithSampleInterval(n) }

// NewTrace creates a ring buffer holding up to capacity trace events
// (capacity <= 0 selects the default of 262144).
func NewTrace(capacity int) *Trace { return obs.NewTrace(capacity) }

// NewCollector builds a trace collector feeding the given trace.
func NewCollector(t *Trace) *Collector { return obs.NewCollector(t) }

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WriteChromeTrace exports trace events as Chrome trace-event JSON,
// loadable in ui.perfetto.dev and chrome://tracing.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// RenderTimeline draws a Figure 2-style text timeline of a trace.
func RenderTimeline(w io.Writer, events []TraceEvent, width int) {
	obs.RenderTimeline(w, events, width)
}

// NewMultiDevice co-schedules CTAs of several dissimilar kernels on the
// same SMs. Per paper section IV, RegMutex does not support this mode:
// kernels must carry no extended set (use Prepare, not Transform), and
// execution falls back to static, exclusive allocation. Each kernel gets
// its own global memory; read results back with Device.GlobalOf.
func NewMultiDevice(cfg Config, t Timing, kernels []*Kernel, globals [][]uint64) (*Device, error) {
	return sim.NewMultiDevice(cfg, t, kernels, globals)
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

// Workloads (see internal/workloads).
type Workload = workloads.Workload

// Workloads returns the sixteen Table I applications.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName finds one Table I application.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Register file energy model (see internal/energy).
type (
	// EnergyModel prices register file accesses and leakage.
	EnergyModel = energy.Model
	// EnergyReport is a per-run register file energy breakdown.
	EnergyReport = energy.Report
)

// DefaultEnergyModel returns representative 40 nm-class parameters.
func DefaultEnergyModel() EnergyModel { return energy.DefaultModel() }

// Experiment harness (see internal/harness): regenerates the paper's
// tables and figures.
type ExperimentOptions = harness.Options
