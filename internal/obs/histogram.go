package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a lock-free log-bucketed latency/value histogram. Buckets
// grow geometrically (4 sub-buckets per power of two, ~19% relative
// width), covering roughly 1e-9 .. 8e9 — nanoseconds to centuries when
// observing seconds — so one shape serves every duration metric without
// per-metric bounds. Observe is wait-free (one atomic add per bucket
// plus CAS loops for sum/max) and safe from any number of goroutines.
//
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBucketCount]atomic.Int64
}

const (
	// histSubBuckets sub-buckets per octave; histMinExp is the frexp
	// exponent of the smallest distinguishable value (2^-30 ≈ 9.3e-10).
	histSubBuckets  = 4
	histMinExp      = -30
	histOctaves     = 64
	histBucketCount = histOctaves * histSubBuckets
)

// bucketIndex maps a value to its bucket. Non-positive and tiny values
// clamp to bucket 0, huge values to the last bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	idx := (exp-histMinExp)*histSubBuckets + int((frac-0.5)*(2*histSubBuckets))
	if idx < 0 {
		return 0
	}
	if idx >= histBucketCount {
		return histBucketCount - 1
	}
	return idx
}

// bucketUpperBound is the inclusive upper edge of bucket i.
func bucketUpperBound(i int) float64 {
	oct, sub := i/histSubBuckets, i%histSubBuckets
	return math.Ldexp(0.5+float64(sub+1)/(2*histSubBuckets), oct+histMinExp)
}

// Observe records one value. Negative or NaN values count toward the
// lowest bucket (they never happen for durations; clamping keeps the
// hot path branch-light).
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Snapshot captures a point-in-time copy. Under concurrent Observes the
// fields are each individually consistent but may straddle an update
// (count can momentarily lead sum by one observation); mergeable and
// exact once writers quiesce.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	return s
}

// HistogramSnapshot is a frozen histogram: plain values, no atomics, so
// snapshots can be merged across shards/processes and serialized.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Max     float64
	Buckets [histBucketCount]int64
}

// Merge folds o into s (bucket-wise addition; max of maxes).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean is Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the q*Count-th observation, capped at the exact
// observed Max so p99 never exceeds it. Relative error is bounded by
// the bucket width (~19%). Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			ub := bucketUpperBound(i)
			if s.Max > 0 && ub > s.Max {
				return s.Max
			}
			return ub
		}
	}
	return s.Max
}

// HistogramBucket is one non-empty bucket with its upper edge —
// the exposition shape (Prometheus `le` edges are built from these).
type HistogramBucket struct {
	UpperBound float64
	Count      int64
}

// NonzeroBuckets lists occupied buckets in ascending bound order.
func (s HistogramSnapshot) NonzeroBuckets() []HistogramBucket {
	var out []HistogramBucket
	for i, c := range s.Buckets {
		if c != 0 {
			out = append(out, HistogramBucket{UpperBound: bucketUpperBound(i), Count: c})
		}
	}
	return out
}
