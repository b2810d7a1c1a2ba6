package main

import (
	"fmt"
	"time"

	"regmutex/internal/harness"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// simBench is the sim-regmutex / sim-static workload: a one-client
// closed loop of sim.New + Device.Run, round-robin over the eight
// register-limited Fig 7 kernels, compiled for the policy during set-up.
// One op is one simulation; the loop runs whole passes over the eight
// kernels so every kernel has the same weight in every phase.
type simBench struct {
	policy  string
	machine occupancy.Config
	kernels []simKernel
	first   int // seeded start of the round-robin
	warmup  int // failed checks in the warm-up pass
	tr      simTrace
}

// simTrace sums a traced phase's simulator outcomes.
type simTrace struct {
	runs, passes                               int
	cycles, instructions, acqStall, schedSlots int64
	attempts, successes, releases              uint64
	kernelCycles                               map[string]int64
	kernelRun                                  map[string]time.Duration
}

type simKernel struct {
	name  string
	run   *isa.Kernel
	pol   sim.Policy
	input []uint64 // generated from the seed; copied into mem per op
	mem   []uint64
	pin   simPin
}

func newSimBench(policy string, seed uint64) (*simBench, error) {
	pins := mustPins()
	b := &simBench{policy: policy, machine: benchMachine()}
	set := workloads.Fig7Set()
	for i, w := range set {
		k := w.Build(benchScale)
		run, pol, err := harness.PreparePolicy(b.machine, k, policy)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, policy, err)
		}
		pin, ok := pins.Sim[w.Name+"/"+policy]
		if !ok {
			return nil, fmt.Errorf("no pinned output for %s/%s", w.Name, policy)
		}
		input := w.Input(k, mix(seed, uint64(i)))
		b.kernels = append(b.kernels, simKernel{
			name: w.Name, run: run, pol: pol, pin: pin,
			input: input, mem: make([]uint64, len(input)),
		})
	}
	b.first = int(mix(seed, 99) % uint64(len(b.kernels)))
	// Warm-up pass: every kernel once, checked like a timed op.
	for i := range b.kernels {
		if !b.op(&b.kernels[i], nil) {
			b.warmup++
		}
	}
	return b, nil
}

// op runs one simulation: fresh input memory, sim.New, Device.Run, and
// the pinned-output check.
func (b *simBench) op(k *simKernel, led *ledger) bool {
	copy(k.mem, k.input)
	start := time.Now()
	d, err := sim.New(sim.DeviceSpec{Config: b.machine, Timing: sim.DefaultTiming(), Kernel: k.run},
		sim.WithPolicy(k.pol), sim.WithGlobal(k.mem), sim.WithParallelism(1))
	if err != nil {
		return false
	}
	var ran time.Time
	if led != nil {
		ran = led.span("sim.new", start)
	}
	st, err := d.Run()
	if led != nil {
		b.tr.add(k.name, st, led.span("sim.run", ran).Sub(ran))
	}
	return err == nil && pinOfStats(st) == k.pin
}

func (t *simTrace) add(kernel string, st sim.Stats, run time.Duration) {
	if t.kernelCycles == nil {
		t.kernelCycles = map[string]int64{}
		t.kernelRun = map[string]time.Duration{}
	}
	t.runs++
	t.cycles += st.Cycles
	t.instructions += st.Instructions
	t.acqStall += st.Stall[sim.CauseAcquire]
	t.schedSlots += st.SchedSlots
	t.attempts += st.AcquireAttempts
	t.successes += st.AcquireSuccesses
	t.releases += st.Releases
	t.kernelCycles[kernel] += st.Cycles
	t.kernelRun[kernel] += run
}

func (b *simBench) run(until time.Time, led *ledger, ph *phase) {
	for first := true; first || time.Now().Before(until); first = false {
		for i := range b.kernels {
			k := &b.kernels[(b.first+i)%len(b.kernels)]
			t := startOp()
			ok := b.op(k, led)
			cpu, wall := t.stop()
			ph.record(cpu, wall, ok)
		}
		if led != nil {
			b.tr.passes++
		}
	}
}

func (b *simBench) warmupFailures() int { return b.warmup }

// layers reports the simulator ledger under this policy's suffix, with
// host times at reference speed.
func (b *simBench) layers(plain, traced phase, led *ledger, cross *crossLedger, out map[string]metric) {
	t := b.tr
	f := traced.wallScale()
	for k, c := range t.kernelCycles {
		cross.addRun(b.policy, k, c, time.Duration(float64(t.kernelRun[k])*f))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) * f / float64(t.runs) }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	run := led.top["sim.run"]
	perPass := func(v float64) float64 { return v / float64(t.passes) }
	p := "." + b.policy
	out["sim.new_ms"+p] = metric{ms(led.top["sim.new"]), "ms"}
	out["sim.run_ms"+p] = metric{ms(run), "ms"}
	out["sim.cycles_per_s"+p] = metric{float64(t.cycles) / (run.Seconds() * f), "1/s"}
	out["sim.ns_per_instr"+p] = metric{float64(run.Nanoseconds()) * f / float64(t.instructions), "ns"}
	out["sim.allocs_per_run"+p] = metric{float64(plain.mem.mallocs) / float64(plain.completed()), "count"}
	out["sim.acquire_attempts_per_cycle"+p] = metric{frac(float64(t.attempts), float64(t.cycles)), "ratio"}
	out["sim.acquire_success_frac"+p] = metric{frac(float64(t.successes), float64(t.attempts)), "frac"}
	out["sim.releases"+p] = metric{perPass(float64(t.releases)), "count"}
	out["sim.stall.acquire_wait_frac"+p] = metric{frac(float64(t.acqStall), float64(t.schedSlots)), "frac"}
	out["sim.cycles"+p] = metric{perPass(float64(t.cycles)), "count"}
	out["sim.instructions"+p] = metric{perPass(float64(t.instructions)), "count"}
}

func (b *simBench) close() {}
