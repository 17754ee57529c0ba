package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		// Ten per-round values with one disturbed round: the median of
		// rounds ignores it, which is the point of measuring in rounds.
		{[]float64{100, 101, 99, 100, 250, 100, 98, 102, 100, 101}, 100},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTailRank(t *testing.T) {
	// p99 needs ten samples beyond it; below 1000 samples the rank
	// backs off until ten samples lie beyond, never below the median.
	for _, tc := range []struct{ n, want int }{
		{300000, 297000}, {1100, 1089}, {1000, 990}, {400, 390}, {160, 150}, {20, 10}, {5, 3}, {1, 1},
	} {
		if got := tailRank(tc.n); got != tc.want {
			t.Errorf("tailRank(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, since the acceptance driver
// computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.5, 9.8, 10.1, 10.0, 9.9, 10.2, 10.4, 9.7, 10.3, 10.6}, 9.875, 10.425},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}
