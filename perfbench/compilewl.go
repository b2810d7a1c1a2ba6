package main

import (
	"fmt"
	"time"

	"regmutex/internal/asm"
	"regmutex/internal/cfg"
	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/liveness"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// compileWarmupOps is the set-up's warm-up length in whole-suite ops: a
// single op takes about 20 ms, too short for a set-up time that repeats.
const compileWarmupOps = 10

// compileBench is the compile workload: a one-client closed loop whose
// op is one pass over all 16 Table I kernels — asm.Parse of the kernel's
// .kasm text, core.Lint, then core.Transform for GTX480 and for
// GTX480Half. The kernel order of each pass is a seeded permutation.
type compileBench struct {
	kernels  []compileKernel
	machines []occupancy.Config
	seed     uint64
	ops      uint64 // ops run so far: selects the next permutation
	warmup   int
	tr       compileTrace
}

type compileKernel struct {
	name string
	kasm string // asm.Format output, generated during set-up
	pins []compilePin
}

// compileTrace sums a traced phase's compiler outcomes.
type compileTrace struct {
	ops                              int
	acquires, releases, moves, esSum int
}

func newCompileBench(seed uint64) (*compileBench, error) {
	pins := mustPins()
	b := &compileBench{machines: compileMachines(), seed: seed}
	for _, w := range workloads.All() {
		ck := compileKernel{name: w.Name, kasm: asm.Format(w.Build(benchScale))}
		for _, m := range b.machines {
			pin, ok := pins.Compile[w.Name+"/"+m.Name]
			if !ok {
				return nil, fmt.Errorf("no pinned compile output for %s/%s", w.Name, m.Name)
			}
			ck.pins = append(ck.pins, pin)
		}
		b.kernels = append(b.kernels, ck)
	}
	for i := 0; i < compileWarmupOps; i++ {
		if ok, _ := b.op(nil); !ok {
			b.warmup++
		}
	}
	return b, nil
}

// op compiles every kernel once and checks each result against its pin.
// With a ledger the top-level calls are timed and the parsed kernels
// are returned for probe.
func (b *compileBench) op(led *ledger) (bool, []*isa.Kernel) {
	ok := true
	order := permutation(len(b.kernels), mix(b.seed, b.ops))
	b.ops++
	var parsed []*isa.Kernel
	for _, i := range order {
		ck := &b.kernels[i]
		t := time.Now()
		k, err := asm.Parse(ck.kasm)
		if led != nil {
			t = led.span("asm.parse", t)
		}
		if err != nil {
			ok = false
			continue
		}
		issues, err := core.Lint(k)
		if led != nil {
			t = led.span("core.lint", t)
		}
		if err != nil {
			ok = false
			continue
		}
		for mi, m := range b.machines {
			r, err := core.Transform(k, core.Options{Config: m})
			if led != nil {
				t = led.span("core.transform", t)
			}
			if err != nil || pinOfCompile(r, len(issues)) != ck.pins[mi] {
				ok = false
				continue
			}
			if led != nil {
				b.tr.acquires += r.Acquires
				b.tr.releases += r.Releases
				b.tr.moves += r.Moves
				b.tr.esSum += r.Split.Es
			}
		}
		if led != nil {
			parsed = append(parsed, k)
		}
	}
	return ok, parsed
}

// probe runs, outside the op's timing, the stages that Lint and
// Transform call internally — cfg.Build, liveness.Analyze and
// core.Prepare — once on each kernel, so their cost is measured alone.
func probe(parsed []*isa.Kernel, led *ledger) bool {
	ok := true
	for _, k := range parsed {
		t := time.Now()
		g, err := cfg.Build(k)
		t = led.nestedSpan("cfg.build", t)
		if err != nil {
			ok = false
			continue
		}
		liveness.Analyze(k, g)
		t = led.nestedSpan("liveness.analyze", t)
		if _, err := core.Prepare(k); err != nil {
			ok = false
		}
		led.nestedSpan("core.prepare", t)
	}
	return ok
}

func (b *compileBench) run(until time.Time, led *ledger, ph *phase) {
	for first := true; first || time.Now().Before(until); first = false {
		t := startOp()
		ok, parsed := b.op(led)
		cpu, wall := t.stop()
		if led != nil {
			ok = probe(parsed, led) && ok
			b.tr.ops++
		}
		ph.record(cpu, wall, ok)
	}
}

func (b *compileBench) warmupFailures() int { return b.warmup }

// layers reports the compile ledger. Times are per op (one pass over the
// 16 kernels) at reference speed; the nested stages are per op too, one
// call per kernel.
func (b *compileBench) layers(plain, traced phase, led *ledger, _ *crossLedger, out map[string]metric) {
	n := float64(b.tr.ops)
	f := traced.wallScale()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) * f / n }
	out["asm.parse_us"] = metric{us(led.top["asm.parse"]), "us"}
	out["core.lint_us"] = metric{us(led.top["core.lint"]), "us"}
	out["core.transform_us"] = metric{us(led.top["core.transform"]), "us"}
	out["cfg.build_us"] = metric{us(led.nested["cfg.build"]), "us"}
	out["liveness.analyze_us"] = metric{us(led.nested["liveness.analyze"]), "us"}
	out["core.prepare_us"] = metric{us(led.nested["core.prepare"]), "us"}
	out["core.acq_injected"] = metric{float64(b.tr.acquires) / n, "count"}
	out["core.rel_injected"] = metric{float64(b.tr.releases) / n, "count"}
	out["core.moves_injected"] = metric{float64(b.tr.moves) / n, "count"}
	out["core.es_selected"] = metric{float64(b.tr.esSum) / n, "count"}
	out["compile.alloc_kb_per_op"] = metric{float64(plain.mem.totalAlloc) / 1024 / float64(plain.completed()), "KiB"}
}

func (b *compileBench) close() {}
