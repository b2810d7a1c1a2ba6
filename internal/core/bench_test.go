package core

import (
	"testing"

	"regmutex/internal/asm"
	"regmutex/internal/occupancy"
	"regmutex/internal/workloads"
)

// BenchmarkCompileSuite runs one op of the perfbench compile workload per
// iteration: for each of the 16 Table I kernels at scale 8, asm.Parse of
// its asm.Format text, Lint, then Transform on GTX480 and GTX480Half. It
// is the profile entry point for the compiler:
//
//	go test ./internal/core -run '^$' -bench CompileSuite -benchmem -cpuprofile cpu.out
func BenchmarkCompileSuite(b *testing.B) {
	var texts []string
	for _, w := range workloads.All() {
		texts = append(texts, asm.Format(w.Build(8)))
	}
	machines := []occupancy.Config{occupancy.GTX480(), occupancy.GTX480Half()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			k, err := asm.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Lint(k); err != nil {
				b.Fatal(err)
			}
			for _, m := range machines {
				if _, err := Transform(k, Options{Config: m}); err != nil {
					b.Fatalf("%s/%s: %v", k.Name, m.Name, err)
				}
			}
		}
	}
}
