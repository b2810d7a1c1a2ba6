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
// The compilation step depends on the policy: static/owf/rfv run the
// untouched kernel through core.Prepare, while regmutex/paired run the
// RegMutex-transformed binary; owf additionally derives its register
// split from the transform so comparisons share one |Bs|. This is the
// single front door cmd/gpusim, benchreg and the observability tests
// use, so every tool agrees on what "run policy X" means.
func PreparePolicy(machine occupancy.Config, k *isa.Kernel, name string) (*isa.Kernel, sim.Policy, error) {
	switch name {
	case "static":
		pre, err := core.Prepare(k)
		if err != nil {
			return nil, nil, err
		}
		return pre, sim.NewStaticPolicy(machine), nil
	case "owf", "rfv":
		pre, err := core.Prepare(k)
		if err != nil {
			return nil, nil, err
		}
		if name == "rfv" {
			return pre, sim.NewRFVPolicy(machine), nil
		}
		res, err := core.Transform(k, core.Options{Config: machine})
		if err != nil {
			return nil, nil, err
		}
		return pre, sim.NewOWFPolicy(machine, res.Split.Bs), nil
	case "regmutex", "paired":
		res, err := core.Transform(k, core.Options{Config: machine})
		if err != nil {
			return nil, nil, err
		}
		if name == "paired" {
			return res.Kernel, sim.NewPairedPolicy(machine), nil
		}
		return res.Kernel, sim.NewRegMutexPolicy(machine), nil
	default:
		return nil, nil, &NotFoundError{Kind: "policy", Name: name, Valid: PolicyNames}
	}
}
