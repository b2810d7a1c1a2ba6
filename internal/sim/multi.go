package sim

import (
	"fmt"

	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
)

// NewMultiDevice builds a device that co-schedules CTAs of several
// *dissimilar* kernels on the same SMs (in the spirit of KernelMerge,
// which the paper cites as orthogonal work). Section IV states the
// RegMutex limitation this mode exists to demonstrate: "Co-scheduling
// dissimilar kernels on an SM is not supported by our technique and
// results in falling back to the default execution mode (zero-sized
// extended set)" — so the mode refuses kernels carrying an extended set
// and always uses static, exclusive allocation with direct resource
// accounting (canHost). The grids take turns launching, one CTA each.
//
// Each kernel gets its own global memory (globals[i]; nil entries are
// allocated zero-filled). The options are New's; WithPolicy and
// WithGlobal are refused, since the policy and memories are fixed here.
func NewMultiDevice(cfg occupancy.Config, timing Timing, kernels []*isa.Kernel, globals [][]uint64, opts ...Option) (*Device, error) {
	b := collect(opts)
	if b.policy != nil || b.global != nil {
		return nil, fmt.Errorf("sim: co-scheduled kernels run under static allocation on their own memories; WithPolicy and WithGlobal do not apply")
	}
	if len(kernels) == 0 {
		return nil, fmt.Errorf("sim: no kernels to co-schedule")
	}
	if globals != nil && len(globals) != len(kernels) {
		return nil, fmt.Errorf("sim: %d kernels but %d memories", len(kernels), len(globals))
	}
	grids := make([]grid, len(kernels))
	for i, k := range kernels {
		if err := k.Validate(); err != nil {
			return nil, err
		}
		if k.HasExtendedSet() {
			return nil, fmt.Errorf("sim: kernel %s carries an extended set; co-scheduling dissimilar kernels requires the default execution mode (strip the RegMutex transform first)", k.Name)
		}
		// Every kernel must fit an empty SM on its own.
		if occupancy.Baseline(cfg, k).CTAsPerSM < 1 {
			return nil, fmt.Errorf("sim: kernel %s does not fit on %s", k.Name, cfg.Name)
		}
		grids[i].kern = k
		if globals != nil {
			grids[i].global = globals[i]
		}
	}
	return build(cfg, timing, NewStaticPolicy(cfg), (*SM).canHost, grids, b)
}

// canHost checks whether sm has room for one more CTA of k under static,
// exclusive allocation: warp slots, register rows, threads, shared
// memory, and the CTA cap — the multi-kernel generalisation of the
// occupancy calculator.
func (sm *SM) canHost(k *isa.Kernel) bool {
	cfg := sm.dev.Config
	if len(sm.ctas) >= cfg.MaxCTAsPerSM {
		return false
	}
	if sm.freeSlots() < k.WarpsPerCTA() {
		return false
	}
	threads, rows, shared := 0, 0, 0
	for _, c := range sm.ctas {
		threads += c.kern.ThreadsPerCTA
		rows += c.kern.WarpsPerCTA() * c.kern.AllocRegs()
		shared += c.kern.SharedMemWords
	}
	if threads+k.ThreadsPerCTA > cfg.MaxThreadsPerSM {
		return false
	}
	if rows+k.WarpsPerCTA()*k.AllocRegs() > cfg.WarpRegisters() {
		return false
	}
	if shared+k.SharedMemWords > cfg.SharedWordsPerSM {
		return false
	}
	return true
}
