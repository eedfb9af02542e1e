package main

import (
	"testing"
)

// TestPercentileNearestRank pins the small-sample rules: nearest-rank (a
// value that was measured, never the truncating int(q·(n−1)) index), and a
// percentile refused unless ten samples lie beyond it. Samples are 1..n, so
// a percentile's value is its rank.
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n                    int
		p50, p90             float64
		p50Backed, p90Backed bool
	}{
		{n: 1, p50: 1, p90: 1},
		{n: 4, p50: 2, p90: 4},
		{n: 99, p50: 50, p90: 90, p50Backed: true}, // 9 beyond p90: one short
		{n: 100, p50: 50, p90: 90, p50Backed: true, p90Backed: true},
		{n: 101, p50: 51, p90: 91, p50Backed: true, p90Backed: true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if got := percentile(xs, 50); got != tc.p50 {
			t.Errorf("n=%d: p50 = %v, want %v", tc.n, got, tc.p50)
		}
		if got := percentile(xs, 90); got != tc.p90 {
			t.Errorf("n=%d: p90 = %v, want %v", tc.n, got, tc.p90)
		}
		if got := supported(tc.n, 50); got != tc.p50Backed {
			t.Errorf("n=%d: p50 supported = %v, want %v", tc.n, got, tc.p50Backed)
		}
		if got := supported(tc.n, 90); got != tc.p90Backed {
			t.Errorf("n=%d: p90 supported = %v, want %v", tc.n, got, tc.p90Backed)
		}
	}
	if supported(0, 50) {
		t.Error("an empty sample supports no percentile")
	}
	if got := percentileOf([]float64{9, 1, 5, 3}, 90); got != 9 {
		t.Errorf("p90 of 4 unsorted = %v, want the largest (9)", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median of 4 = %v, want the 2nd smallest (3)", got)
	}
}
