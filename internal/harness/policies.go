package harness

import (
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
)

// PolicyNames lists every register-allocation policy the tools accept,
// in report order (static first: it is the delta reference).
var PolicyNames = []string{"static", "regmutex", "paired", "owf", "rfv"}

// PreparePolicy compiles kernel k for the named policy on the given
// machine and returns the kernel to simulate together with the policy.
// It is prepare with the heuristic's |Es|, for callers that drive
// sim.New themselves (perfbench, simfuzz and the
// observability tests), so every tool agrees on what "run policy X"
// means.
func PreparePolicy(machine occupancy.Config, k *isa.Kernel, name string) (*isa.Kernel, sim.Policy, error) {
	run, pol, _, err := prepare(machine, k, name, 0)
	return run, pol, err
}

// prepare is the one policy→compile mapping. static and rfv run the
// untouched kernel through core.Prepare; regmutex and paired run the
// RegMutex-transformed binary; owf runs the prepared kernel but borrows
// the transform's |Bs|, so comparisons share one split. forceEs pins the
// transform's extended-set size (0 = the heuristic's pick). The
// transform result is returned for the policies that ran it, nil
// otherwise.
func prepare(machine occupancy.Config, k *isa.Kernel, name string, forceEs int) (*isa.Kernel, sim.Policy, *core.Result, error) {
	switch name {
	case "static", "rfv":
		pre, err := core.Prepare(k)
		if err != nil {
			return nil, nil, nil, err
		}
		if name == "rfv" {
			return pre, sim.NewRFVPolicy(machine), nil, nil
		}
		return pre, sim.NewStaticPolicy(machine), nil, nil
	case "regmutex", "paired", "owf":
		res, err := core.Transform(k, core.Options{Config: machine, ForceEs: forceEs})
		if err != nil {
			return nil, nil, nil, err
		}
		switch name {
		case "regmutex":
			return res.Kernel, sim.NewRegMutexPolicy(machine), res, nil
		case "paired":
			return res.Kernel, sim.NewPairedPolicy(machine), res, nil
		}
		pre, err := core.Prepare(k)
		if err != nil {
			return nil, nil, nil, err
		}
		return pre, sim.NewOWFPolicy(machine, res.Split.Bs), res, nil
	default:
		return nil, nil, nil, &NotFoundError{Kind: "policy", Name: name, Valid: PolicyNames}
	}
}
