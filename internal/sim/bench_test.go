package sim

import (
	"testing"

	"regmutex/internal/core"
	"regmutex/internal/isa"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// BenchmarkWheel is the allocation guard for the event wheel behind
// memory completions and scoreboard wakeups. Each iteration is one SM
// cycle: drain through now, issue an ALU writeback and, every third
// cycle, a global load, then look up the next event. It must report 0
// allocs/op.
func BenchmarkWheel(b *testing.B) {
	b.ReportAllocs()
	wh := newWheel(DefaultTiming().MaxLatency())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		wh.expire(now)
		wh.push(now + 4)
		if i%3 == 0 {
			wh.push(now + 400)
		}
		if wh.next() < 0 {
			b.Fatal("wheel lost an event")
		}
	}
}

// BenchmarkFig7Pass runs one pass of the eight register-limited Fig 7
// kernels (scale 8, 2 SMs, input seed 1) per iteration, under static
// (core.Prepare) and regmutex (core.Transform), and reports host time
// per simulated instruction. It is the profile entry point for the cycle
// loop:
//
//	go test ./internal/sim -run '^$' -bench Fig7Pass -cpuprofile cpu.out
func BenchmarkFig7Pass(b *testing.B) {
	cfg := occupancy.GTX480()
	cfg.NumSMs = 2
	for _, policy := range []string{"static", "regmutex"} {
		var kerns []*isa.Kernel
		var inputs [][]uint64
		for _, w := range workloads.Fig7Set() {
			k := w.Build(8)
			run, err := core.Prepare(k)
			if policy == "regmutex" {
				var res *core.Result
				if res, err = core.Transform(k, core.Options{Config: cfg}); err == nil {
					run = res.Kernel
				}
			}
			if err != nil {
				b.Fatalf("%s/%s: %v", w.Name, policy, err)
			}
			kerns = append(kerns, run)
			inputs = append(inputs, w.Input(k, 1))
		}
		b.Run(policy, func(b *testing.B) {
			instrs := int64(0)
			var mem []uint64
			for i := 0; i < b.N; i++ {
				for j, k := range kerns {
					mem = append(mem[:0], inputs[j]...)
					var pol Policy = NewStaticPolicy(cfg)
					if policy == "regmutex" {
						pol = NewRegMutexPolicy(cfg)
					}
					d, err := New(DeviceSpec{Config: cfg, Timing: DefaultTiming(), Kernel: k},
						WithPolicy(pol), WithGlobal(mem))
					if err != nil {
						b.Fatal(err)
					}
					st, err := d.Run()
					if err != nil {
						b.Fatalf("%s/%s: %v", k.Name, policy, err)
					}
					instrs += st.Instructions
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
