package harness

import (
	"testing"

	"regmutex/internal/occupancy"
	"regmutex/internal/sim"
	"regmutex/internal/workloads"
)

// BenchmarkSimCell is the hot-path regression benchmark: one full
// device run of a bfs cell per iteration. Watch allocs/op (the issue
// loop, watchdog, and event wheels must not allocate per cycle) and
// cycles_per_sec; the perf section of the committed BENCH_<date>.json
// trajectory files (perfbench's sim workloads) gates throughput in CI,
// this benchmark is for bisecting locally with benchstat.
func BenchmarkSimCell(b *testing.B) {
	machine := occupancy.GTX480()
	machine.NumSMs = 2
	w, err := workloads.ByName("bfs")
	if err != nil {
		b.Fatal(err)
	}
	k := w.Build(8)
	for _, pname := range []string{"static", "regmutex"} {
		run, pol, err := PreparePolicy(machine, k, pname)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pname, func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				d, err := sim.New(
					sim.DeviceSpec{Config: machine, Timing: sim.DefaultTiming(), Kernel: run},
					sim.WithPolicy(pol), sim.WithGlobal(w.Input(k, 42)))
				if err != nil {
					b.Fatal(err)
				}
				st, err := d.Run()
				if err != nil {
					b.Fatal(err)
				}
				if cycles == 0 {
					cycles = st.Cycles
				} else if st.Cycles != cycles {
					b.Fatalf("cycle count drifted across iterations: %d then %d", cycles, st.Cycles)
				}
			}
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}
