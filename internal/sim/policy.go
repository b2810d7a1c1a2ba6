package sim

import (
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// Policy decides how physical registers constrain residency and how the
// RegMutex/OWF/RFV mechanisms behave at issue time.
type Policy interface {
	Name() string
	// CTAsPerSM is the residency the policy allows for the kernel.
	CTAsPerSM(k *isa.Kernel) int
	// NewSMState creates the per-SM mutable state.
	NewSMState(sm *SM) PolicyState
}

// PolicyState is per-SM policy state consulted by the issue logic.
type PolicyState interface {
	// TryIssue gates instruction issue. Returning false stalls the warp
	// this cycle (it retries when scheduled again). Implementations
	// perform their side effects (acquire a section, take a lock,
	// allocate physical registers) when they return true.
	TryIssue(w *Warp, in *isa.Instr, now int64) bool
	// OnIssued runs after in has issued (frees dead registers etc.).
	OnIssued(w *Warp, in *isa.Instr, now int64)
	// OnWarpExit runs when a warp finishes, so the policy can free what
	// the warp still holds.
	OnWarpExit(w *Warp)
	// Priority orders warps for scheduling: lower runs first; 0 is the
	// default.
	Priority(w *Warp) int
	// Counters reports (acquire attempts, acquire successes, releases).
	Counters() (attempts, successes, releases uint64)
}

// nopState provides default no-op implementations.
type nopState struct{}

func (nopState) TryIssue(*Warp, *isa.Instr, int64) bool { return true }
func (nopState) OnIssued(*Warp, *isa.Instr, int64)      {}
func (nopState) OnWarpExit(*Warp)                       {}
func (nopState) Priority(*Warp) int                     { return 0 }
func (nopState) Counters() (uint64, uint64, uint64)     { return 0, 0, 0 }

// ---------------------------------------------------------------------
// Static baseline: registers are reserved exclusively for the warp's
// lifetime at the kernel's full (rounded) demand. ACQ/REL are no-ops if
// they appear.
// ---------------------------------------------------------------------

// StaticPolicy is the unmodified GPU allocation scheme.
type StaticPolicy struct {
	cfg occupancy.Config
}

// NewStaticPolicy returns the baseline policy for the machine.
func NewStaticPolicy(cfg occupancy.Config) *StaticPolicy { return &StaticPolicy{cfg: cfg} }

// Name implements Policy.
func (p *StaticPolicy) Name() string { return "static" }

// CTAsPerSM implements Policy.
func (p *StaticPolicy) CTAsPerSM(k *isa.Kernel) int {
	return occupancy.Baseline(p.cfg, k).CTAsPerSM
}

// NewSMState implements Policy.
func (p *StaticPolicy) NewSMState(*SM) PolicyState { return nopState{} }
