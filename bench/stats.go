package main

import "slices"

// Small-sample statistics. Every percentile the harness prints is the
// nearest-rank one — the smallest sample with at least pct% of the samples
// at or below it, so it is always a value that was measured and p50 of four
// samples is the 2nd, not an interpolation — and comes with its sample
// count. (experiments.quantileMs truncates int(q·(n−1)), which reads the
// 3rd of 4 samples as "p99"; that is the debt this replaces.)

// rank returns the 1-based nearest-rank position of the pct-th percentile
// among n samples. Integer arithmetic: 0.9·100 must be exactly 90.
func rank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank pct-th percentile of an ascending
// sample. It panics on an empty sample: callers gate on the count first.
func percentile(sorted []float64, pct int) float64 {
	return sorted[rank(len(sorted), pct)-1]
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the figure is one or two outliers, not a tail.
const minBeyond = 10

// supported reports whether n samples carry the pct-th percentile.
func supported(n, pct int) bool {
	return n > 0 && n-rank(n, pct) >= minBeyond
}

// percentileOf returns the nearest-rank pct-th percentile of xs without
// reordering it; 0 for an empty sample.
func percentileOf(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, pct)
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentileOf(xs, 50) }
