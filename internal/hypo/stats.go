package hypo

import "sort"

// The statistics here are deliberately RNG-free: the verdict of a
// hypothesis must be a pure function of the measured values, so reports
// are byte-identical across -j settings and repeated runs.

// signTestP is the exact one-sided sign test: the probability of
// observing at least k successes in n fair coin flips,
// P(X >= k | p = 1/2) = sum_{i=k..n} C(n,i) / 2^n. Computed with a
// fixed left-to-right accumulation so the float result is deterministic.
func signTestP(k, n int) float64 {
	if n <= 0 {
		return 1
	}
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	// C(n,i) * 2^-n built incrementally: start at i=0 with 2^-n and
	// multiply by (n-i)/(i+1) to advance. n is seeds × pairs — small —
	// and 2^-n underflows only past n ≈ 1074, far beyond any real spec.
	term := 1.0
	for i := 0; i < n; i++ {
		term /= 2
	}
	p := 0.0
	for i := 0; i <= n; i++ {
		if i >= k {
			p += term
		}
		term = term * float64(n-i) / float64(i+1)
	}
	if p > 1 {
		p = 1
	}
	return p
}

// median returns the exact median of xs (mean of the two middle values
// for even lengths, 0 for empty input). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// dominates reports whether point a Pareto-dominates point b under the
// per-objective goals (goalMin[i] true = smaller is better): a is at
// least as good on every objective and strictly better on at least one.
// Equal points never dominate each other.
func dominates(a, b []float64, goalMin []bool) bool {
	strict := false
	for i := range a {
		av, bv := a[i], b[i]
		if goalMin[i] {
			if av > bv {
				return false
			}
			if av < bv {
				strict = true
			}
		} else {
			if av < bv {
				return false
			}
			if av > bv {
				strict = true
			}
		}
	}
	return strict
}

// paretoFront marks the non-dominated points: out[i] is true when no
// other point dominates points[i].
func paretoFront(points [][]float64, goalMin []bool) []bool {
	out := make([]bool, len(points))
	for i := range points {
		dominated := false
		for j := range points {
			if i != j && dominates(points[j], points[i], goalMin) {
				dominated = true
				break
			}
		}
		out[i] = !dominated
	}
	return out
}
