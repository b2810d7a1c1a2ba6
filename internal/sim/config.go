// Package sim is the GPU simulator the evaluation runs on: a functional
// plus cycle-level model of a Fermi-class device in the spirit of
// GPGPU-Sim (the paper's section IV setup). Each SM has two
// greedy-then-oldest warp schedulers, a per-warp scoreboard, a SIMT
// reconvergence stack, a latency-hiding memory pipeline with a bounded
// number of in-flight requests, CTA-wide barriers, and a pluggable
// register allocation policy (static baseline, RegMutex, paired-warps
// RegMutex, OWF resource sharing, and register file virtualization).
//
// Instructions execute functionally at issue with real per-lane values,
// so loops and data-dependent branches behave like the applications the
// paper measures; the scoreboard and memory pipeline impose the timing.
package sim

// Timing holds the simulator's latency and structural parameters.
// Values approximate the GTX480 model that ships with GPGPU-Sim; the
// experiments depend on their ratios (global memory latency vs. ALU
// latency is what occupancy hides), not on absolute fidelity.
type Timing struct {
	ALULatency    int64 // simple integer ops
	FPLatency     int64 // FP add/mul/fma pipeline
	SFULatency    int64 // transcendentals
	SharedLatency int64 // shared-memory access
	GlobalLatency int64 // global-memory access (uncontended)

	// MaxInFlightMem bounds outstanding global requests per SM (an
	// MSHR/bandwidth proxy). When full, memory instructions stall at
	// issue; hiding this queueing is why occupancy matters.
	MaxInFlightMem int

	// SFUPortsPerSM bounds SFU issues per SM per cycle.
	SFUPortsPerSM int

	// MaxCycles aborts runs that stop making progress. It is the
	// last-resort backstop: the watchdog below should catch every real
	// hang long before this fires.
	MaxCycles int64

	// IdleDeadlockThreshold is how many consecutive cycles the whole
	// device may sit with nothing issued and no event pending before the
	// run aborts with ErrDeadlock. Zero selects the default.
	IdleDeadlockThreshold int64

	// ProgressEpoch is the forward-progress watchdog's check interval in
	// cycles. At each epoch boundary the device compares issue, retire,
	// and acquire counters against the previous epoch; a machine that
	// issues nothing for a full epoch is declared deadlocked, and one
	// that retries acquires without a single success or warp completion
	// for LivelockEpochs consecutive epochs is declared livelocked.
	// Zero selects the default.
	ProgressEpoch int64

	// LivelockEpochs is how many consecutive no-progress epochs the
	// watchdog tolerates before aborting with ErrLivelock. Zero selects
	// the default.
	LivelockEpochs int

	// LooseRoundRobin switches the warp schedulers from the default
	// greedy-then-oldest policy to a loose round-robin (ablation:
	// BenchmarkAblationScheduler).
	LooseRoundRobin bool
}

// Watchdog defaults, applied when the corresponding Timing field is zero
// so hand-built Timing values keep their historical behavior.
const (
	DefaultIdleDeadlockThreshold = 4
	DefaultProgressEpoch         = 1_000_000
	DefaultLivelockEpochs        = 3
)

// DefaultTiming returns the timing model used throughout the evaluation.
func DefaultTiming() Timing {
	return Timing{
		ALULatency:     4,
		FPLatency:      4,
		SFULatency:     16,
		SharedLatency:  24,
		GlobalLatency:  400,
		MaxInFlightMem: 48,
		SFUPortsPerSM:  1,
		MaxCycles:      200_000_000,

		IdleDeadlockThreshold: DefaultIdleDeadlockThreshold,
		ProgressEpoch:         DefaultProgressEpoch,
		LivelockEpochs:        DefaultLivelockEpochs,
	}
}

// MaxLatency returns the largest issue-to-writeback latency any opcode can
// take under this timing model; the audit layer uses it to bound how far
// in the future a pending scoreboard write may legally land.
func (t Timing) MaxLatency() int64 {
	return max(t.ALULatency, t.FPLatency, t.SFULatency, t.SharedLatency, t.GlobalLatency)
}
