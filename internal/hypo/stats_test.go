package hypo

import (
	"math"
	"testing"
)

func TestSignTestP(t *testing.T) {
	cases := []struct {
		k, n int
		want float64
	}{
		{0, 0, 1},   // no observations
		{0, 10, 1},  // trivially satisfied tail
		{11, 10, 0}, // impossible count
		{10, 10, 1.0 / 1024},
		{1, 1, 0.5},
		{2, 2, 0.25},
		{5, 10, 0.623046875}, // sum_{i=5..10} C(10,i)/1024 = 638/1024
	}
	for _, c := range cases {
		got := signTestP(c.k, c.n)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
	// Determinism: repeated evaluation is bit-identical.
	if signTestP(7, 13) != signTestP(7, 13) {
		t.Fatal("signTestP is not deterministic")
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Fatalf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Fatalf("median one = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v, want 2.5", got)
	}
	xs := []float64{5, 1, 9}
	if got := median(xs); got != 5 {
		t.Fatalf("median odd = %v, want 5", got)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 9 {
		t.Fatal("median mutated its input")
	}
}

// TestDominatesTies pins the tie rule: a point never dominates an equal
// point, in either direction, so duplicated configs both stay on the
// frontier instead of knocking each other off.
func TestDominatesTies(t *testing.T) {
	goal := []bool{true, false} // minimize first, maximize second
	a := []float64{10, 3}
	b := []float64{10, 3}
	if dominates(a, b, goal) || dominates(b, a, goal) {
		t.Fatal("equal points must not dominate each other")
	}
	// Equal on one objective, strictly better on the other: dominates.
	c := []float64{9, 3}
	if !dominates(c, a, goal) {
		t.Fatal("c improves objective 0 at no cost, must dominate a")
	}
	if dominates(a, c, goal) {
		t.Fatal("a is weakly worse than c, must not dominate")
	}
	// Trade-off points are mutually non-dominating.
	d := []float64{8, 1}
	e := []float64{12, 5}
	if dominates(d, e, goal) || dominates(e, d, goal) {
		t.Fatal("trade-off points must not dominate each other")
	}
}

func TestParetoFront(t *testing.T) {
	goal := []bool{true, true} // minimize both
	points := [][]float64{
		{1, 5}, // frontier (best on y-trade)
		{2, 2}, // frontier
		{3, 3}, // dominated by {2,2}
		{1, 5}, // duplicate of a frontier point: still on the frontier
		{5, 1}, // frontier
	}
	want := []bool{true, true, false, true, true}
	got := paretoFront(points, goal)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paretoFront[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}
