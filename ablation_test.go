// Ablation benchmarks for the design choices DESIGN.md calls out: the
// δ-vs-segment-count trade of the PWL square root, the fixed-point width
// sweep around the paper's 14/18-bit points, the sweep-order cost on the
// TABLEFREE segment tracker, and the circular-buffer sizing margin.
package ultrabeam_test

import (
	"fmt"
	"testing"

	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/tablesteer"
)

// BenchmarkAblationDeltaSegments sweeps the PWL error bound δ and reports
// the segment count and coefficient-storage cost (accuracy/area knob of
// §VI-A: "the average inaccuracy can be arbitrarily reduced with a lower
// δ ... at the cost of increasing LUT area").
func BenchmarkAblationDeltaSegments(b *testing.B) {
	const domain = 4400.0 * 4400.0
	for _, delta := range []float64{1.0, 0.5, 0.25, 0.125, 0.0625} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			var a *sqrtapprox.Approx
			for i := 0; i < b.N; i++ {
				a = sqrtapprox.New(domain, delta)
			}
			b.ReportMetric(float64(a.NumSegments()), "segments")
			b.ReportMetric(float64(sqrtapprox.NewFixed(a, sqrtapprox.DefaultFixedConfig()).
				LUTBits(24, 19)), "coeff-bits")
		})
	}
}

// BenchmarkAblationFixedWidth sweeps the TABLESTEER word width from 13 to
// 20 bits and reports the expected quantization error added to the 1.4285-
// sample algorithmic mean (the Table II inaccuracy column generalized).
func BenchmarkAblationFixedWidth(b *testing.B) {
	for frac := 0; frac <= 7; frac++ {
		ref := fixed.Format{IntBits: 13, FracBits: frac}
		corr := fixed.Format{IntBits: 13 - min(frac, 4), FracBits: frac, Signed: true}
		b.Run(fmt.Sprintf("bits=%d", ref.Bits()), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = tablesteer.ExpectedAbsQuantError(100_000, ref, corr, 5)
			}
			b.ReportMetric(e, "quant-err-samples")
			b.ReportMetric(1.4285+e, "total-avg-inaccuracy")
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkAblationSweepOrder compares segment-tracker stall cycles for the
// two Algorithm 1 orders on one TABLEFREE unit — the co-design point §II-A
// raises ("different delay calculation architectures may be generating
// values at a faster rate when aimed at a particular order of processing").
func BenchmarkAblationSweepOrder(b *testing.B) {
	spec := core.ReducedSpec()
	p := tablefree.New(tablefree.Config{Vol: spec.Volume(), Arr: spec.Array(),
		Conv: spec.Converter()})
	for _, order := range []scan.Order{scan.NappeOrder, scan.ScanlineOrder} {
		b.Run(order.String(), func(b *testing.B) {
			var res tablefree.SweepResult
			for i := 0; i < b.N; i++ {
				res = p.SimulateSweep(order, spec.ElemX-1, spec.ElemY-1)
			}
			b.ReportMetric(res.StallFraction(), "stalls/point")
			b.ReportMetric(float64(res.MaxJump), "max-jump")
		})
	}
}

// BenchmarkAblationBufferDepth sweeps the circular-buffer size (in BRAM
// banks) and reports the prefetch margin — the §V-B sizing argument.
func BenchmarkAblationBufferDepth(b *testing.B) {
	spec := core.PaperSpec()
	p := spec.NewTableSteer(18)
	for _, banks := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("banks=%d", banks), func(b *testing.B) {
			arch := tablesteer.PaperArch(18)
			arch.Blocks = banks
			var margin int
			for i := 0; i < b.N; i++ {
				margin = p.Stream(arch, 960).MarginCycles()
			}
			b.ReportMetric(float64(margin), "margin-cycles")
		})
	}
}

// BenchmarkAblationMultiOrigin quantifies the §V synthetic-aperture
// extension: storage versus the number of precalculated origin tables, one
// reference table per derived transmit over the shared corrections.
func BenchmarkAblationMultiOrigin(b *testing.B) {
	spec := core.ReducedSpec()
	p := spec.NewTableSteer(18)
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("origins=%d", n), func(b *testing.B) {
			txs := make([]delay.Transmit, n)
			for i := range txs {
				txs[i].Origin.Z = -0.001 * float64(i)
			}
			var provs []delay.Provider
			for i := 0; i < b.N; i++ {
				var err error
				if provs, err = delay.ForTransmits(p, txs); err != nil {
					b.Fatal(err)
				}
			}
			bits := p.Corr.StorageBits()
			for _, q := range provs {
				bits += q.(*tablesteer.Provider).Ref.StorageBits()
			}
			b.ReportMetric(float64(bits)/1e6, "storage-Mb")
		})
	}
}
