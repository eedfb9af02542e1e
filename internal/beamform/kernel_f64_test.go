// Tests of the float64 golden kernel beside the conformance matrix
// (conformance_test.go), which holds its native bodies bitwise to
// accumulateNappe16Ref.
package beamform

import (
	"math"
	"testing"
)

// TestF64KernelBody logs which body runs a resident f64 nappe on this
// build and host — the tile-native body with AVX-512, else the SSE2 body,
// which runs every filled nappe on amd64, or the reference — and CI greps
// the line beside the i16 kernel's.
func TestF64KernelBody(t *testing.T) {
	body := f64KernelBody()
	if body != "avx512-native" && body != "sse2" && body != "ref" {
		t.Fatalf("unknown f64 kernel body %q", body)
	}
	t.Logf("f64 accumulate body: %s", body)
}

// TestF64KernelSkipsZeroWeightElements pins the compaction every body
// shares: a zero-weight element's NaN and ±Inf samples must never reach a
// sum (0·NaN is NaN, so multiplying instead of skipping would show).
func TestF64KernelSkipsZeroWeightElements(t *testing.T) {
	var b builder
	c := b.build(t, kshape{NX: 5, NY: 5, Hann: true, NTh: 11, NPh: 1, NDep: 2, Win: 9, Shift: -1, Seed: 10})
	if len(c.eng.activeIdx) != 9 {
		t.Fatalf("5×5 Hann keeps %d elements, want the inner 9", len(c.eng.activeIdx))
	}
	v := newVerdicts(kernelRoutes())
	c.check(t, v, famF64)
	v.report(t)
	out := &Volume{Vol: c.eng.Cfg.Vol, Data: make([]float64, c.eng.Cfg.Vol.Points())}
	c.eng.accumulateNappe16(c.blks[0], c.bufs, 0, out, false)
	for i, v := range out.Data[:11] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("voxel %d = %v: a zero-weight element's sample entered the sum", i, v)
		}
	}
}

// TestF64KernelThroughSession is the f64 session row of the matrix on the
// host's route: a 3-transmit compound through a Session, bitwise the twin.
func TestF64KernelThroughSession(t *testing.T) { sessionRows(t, "f64", "host") }

// TestF64NoAVX512Route is the same row with the AVX-512 probe cleared: the
// SSE2 body an amd64 host without AVX-512 runs.
func TestF64NoAVX512Route(t *testing.T) { sessionRows(t, "f64", "avx2") }
