package faults

import (
	"fmt"

	"regmutex/internal/audit"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
)

// The differential oracle: one generated kernel, run under every register
// policy on a small audited machine, must agree on final global memory and
// on retired-instruction counts. The generator guarantees both are
// schedule-independent (see genkernel.go), so any disagreement is a
// simulator bug, not scheduling noise.

// diffMachine is the differential fuzzing machine: small enough to keep a
// single run in the low milliseconds, big enough for real contention.
func diffMachine() occupancy.Config {
	c := occupancy.GTX480()
	c.NumSMs = 2
	return c
}

// diffTiming bounds a wedged run; generated kernels finish orders of
// magnitude earlier.
func diffTiming() sim.Timing {
	t := sim.DefaultTiming()
	t.MaxCycles = 2_000_000
	return t
}

// diffRun is one leg of the differential comparison.
type diffRun struct {
	name string
	kern *isa.Kernel
	pol  sim.Policy
}

// RunDifferential generates the seed's kernel, runs every policy with the
// invariant auditor attached, and returns a diagnostic error on the first
// divergence (nil when all legs agree).
func RunDifferential(seed uint64) error {
	src := GenKernel(seed)
	cfg := diffMachine()
	timing := diffTiming()

	pre, err := core.Prepare(src)
	if err != nil {
		return fmt.Errorf("fuzz seed %d: prepare: %w", seed, err)
	}
	res, err := core.Transform(src, core.Options{Config: cfg})
	if err != nil {
		return fmt.Errorf("fuzz seed %d: transform: %w", seed, err)
	}
	input := GenInput(src, seed)

	// Two kernel shapes run: the prepared original and the transformed
	// clone (ACQ/REL and compaction MOVs injected). Memory must agree
	// across every leg; instruction counts must agree within a shape,
	// and across shapes once the transform's additions are subtracted.
	runs := []diffRun{
		{"static", pre, sim.NewStaticPolicy(cfg)},
		{"owf", pre, sim.NewOWFPolicy(cfg, res.Split.Bs)},
		{"rfv", pre, sim.NewRFVPolicy(cfg)},
		{"static+xform", res.Kernel, sim.NewStaticPolicy(cfg)},
		{"regmutex", res.Kernel, sim.NewRegMutexPolicy(cfg)},
		{"paired", res.Kernel, sim.NewPairedPolicy(cfg)},
	}

	mems := make([][]uint64, len(runs))
	stats := make([]sim.Stats, len(runs))
	for i, r := range runs {
		mem := append([]uint64(nil), input...)
		d, err := sim.New(sim.DeviceSpec{Config: cfg, Timing: timing, Kernel: r.kern},
			sim.WithPolicy(r.pol), sim.WithGlobal(mem), sim.WithAudit(audit.Standard(0)))
		if err != nil {
			return fmt.Errorf("fuzz seed %d: %s: device: %w", seed, r.name, err)
		}
		st, err := d.Run()
		if err != nil {
			return fmt.Errorf("fuzz seed %d: %s: %w", seed, r.name, err)
		}
		mems[i], stats[i] = d.Global, st
	}

	for i := 1; i < len(runs); i++ {
		if w := memDiff(mems[0], mems[i]); w >= 0 {
			return fmt.Errorf("fuzz seed %d: memory divergence at word %d: %s=%#x %s=%#x",
				seed, w, runs[0].name, mems[0][w], runs[i].name, mems[i][w])
		}
	}
	// Within a shape, every policy retires the identical stream.
	for _, group := range [][]int{{0, 1, 2}, {3, 4, 5}} {
		ref := group[0]
		for _, i := range group[1:] {
			if stats[i].Instructions != stats[ref].Instructions {
				return fmt.Errorf("fuzz seed %d: instruction divergence: %s=%d %s=%d",
					seed, runs[ref].name, stats[ref].Instructions, runs[i].name, stats[i].Instructions)
			}
		}
	}
	// Across shapes, the transform adds only ACQ/REL when it injected no
	// compaction MOVs.
	if res.Moves == 0 {
		plain := stats[3].Instructions - stats[3].AcqRelInstructions
		if plain != stats[0].Instructions {
			return fmt.Errorf("fuzz seed %d: transformed stream retires %d non-ACQ/REL instructions, original %d",
				seed, plain, stats[0].Instructions)
		}
	}
	return nil
}

// memDiff returns the first differing word index, or -1 when equal.
func memDiff(a, b []uint64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
