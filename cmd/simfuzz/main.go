// Command simfuzz drives the simulator's differential fuzzer and fault
// injector from the command line.
//
// Differential mode (default) generates -n random kernels and runs each
// under every register policy on an audited machine, requiring identical
// final memory and retired-instruction counts; any divergence is printed
// with its reproducing seed and the process exits 1.
//
//	simfuzz -n 500 -seed 1 -j 8
//
// Fault-demo mode injects one fault class into a register-limited workload
// and prints the typed diagnostic the robustness net produces, proving the
// failure is caught (exit 0 when caught, 1 when it escapes):
//
//	simfuzz -fault swallow-release
//	simfuzz -fault list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"regmutex/internal/audit"
	"regmutex/internal/faults"
	"regmutex/internal/harness"
	"regmutex/internal/occupancy"
	"regmutex/internal/runpool"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

func main() {
	n := flag.Int("n", 200, "number of random kernels to fuzz")
	seed := flag.Uint64("seed", 1, "first seed; kernels use seed..seed+n-1")
	jobs := flag.Int("j", runtime.NumCPU(), "parallel fuzz workers")
	fault := flag.String("fault", "", "fault-demo mode: inject this class (or 'list')")
	flag.Parse()

	if *fault != "" {
		os.Exit(faultDemo(*fault))
	}
	os.Exit(fuzz(*n, *seed, *jobs))
}

// fuzz runs the differential oracle over n seeds on a worker pool.
func fuzz(n int, seed uint64, jobs int) int {
	pool := runpool.New(jobs)
	futs := make([]*runpool.Future, n)
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		futs[i] = pool.Submit(func() (any, error) {
			return nil, faults.RunDifferential(s)
		})
	}
	failures := 0
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", seed+uint64(i), err)
		}
	}
	if failures > 0 {
		fmt.Printf("simfuzz: %d/%d differential runs diverged\n", failures, n)
		return 1
	}
	fmt.Printf("simfuzz: %d kernels, all policies agree (seeds %d..%d, %d workers)\n",
		n, seed, seed+uint64(n)-1, jobs)
	return 0
}

// faultDemo injects one fault class and shows the diagnostic that caught
// it.
func faultDemo(class string) int {
	if class == "list" {
		for _, c := range faults.Classes() {
			fmt.Println(c)
		}
		return 0
	}
	found := false
	for _, c := range faults.Classes() {
		if string(c) == class {
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "simfuzz: unknown fault class %q (try -fault list)\n", class)
		return 1
	}

	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	timing := sim.DefaultTiming()
	timing.MaxCycles = 2_000_000

	// Faults that need the SRP inject into a register-limited workload
	// under regmutex; the RFV and barrier classes need their own policy
	// and, for the barrier, a kernel that syncs (dwt2d, every row).
	w, policy := workloads.Fig7Set()[0], "regmutex"
	plan := faults.Plan{Class: faults.Class(class), Warp: 0}
	switch faults.Class(class) {
	case faults.CorruptRFVRows:
		policy, plan.After = "rfv", 5
	case faults.StallBarrier:
		dwt, err := workloads.ByName("dwt2d")
		if err != nil {
			fmt.Fprintln(os.Stderr, "simfuzz:", err)
			return 1
		}
		w, policy = dwt, "static"
	case faults.LostWriteback:
		plan.After = 3
	}
	k := w.Build(8)
	kern, pol, err := harness.PreparePolicy(cfg, k, policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
		return 1
	}

	d, err := sim.New(sim.DeviceSpec{Config: cfg, Timing: timing, Kernel: kern},
		sim.WithPolicy(faults.Inject(pol, plan)), sim.WithGlobal(w.Input(k, 1)),
		sim.WithAudit(audit.Standard(0)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
		return 1
	}
	_, err = d.Run()
	if err == nil {
		fmt.Printf("injected %s: NOT caught (run completed cleanly)\n", plan)
		return 1
	}
	var de *sim.DeadlockError
	if errors.As(err, &de) && de.Kind == sim.WedgeMaxCycles {
		fmt.Printf("injected %s: escaped to the MaxCycles backstop: %v\n", plan, err)
		return 1
	}
	fmt.Printf("injected %s\ncaught:   %v\nclasses:  deadlock=%v livelock=%v invariant=%v\n",
		plan, err,
		errors.Is(err, sim.ErrDeadlock), errors.Is(err, sim.ErrLivelock), errors.Is(err, sim.ErrInvariant))
	return 0
}
