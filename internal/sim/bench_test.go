package sim

import "testing"

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
