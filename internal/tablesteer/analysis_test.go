package tablesteer

import (
	"math"
	"testing"

	"ultrabeam/internal/fixed"
)

func TestSteerErrorZeroUnsteered(t *testing.T) {
	// θ = φ = 0 ⇒ S coincides with R ⇒ no error at all.
	if e := SteerErrorSeconds(0.05, 0, 0, 0.005, -0.003, 1540); math.Abs(e) > 1e-18 {
		t.Errorf("unsteered error = %v", e)
	}
}

func TestSteerErrorZeroCenterElement(t *testing.T) {
	// xD = yD = 0 ⇒ |SD| = |RD| = r and the correction is 0: exact.
	if e := SteerErrorSeconds(0.05, 0.4, -0.3, 0, 0, 1540); math.Abs(e) > 1e-15 {
		t.Errorf("center-element error = %v", e)
	}
}

func TestSteerErrorShrinksWithDepth(t *testing.T) {
	// Far-field approximation: error ~ 1/r for fixed steering and element.
	// Element on the side away from the steering (negative coordinates) so
	// the two Taylor remainders do not cancel.
	e1 := math.Abs(SteerErrorSeconds(0.04, 0.5, 0.3, -0.008, -0.008, 1540))
	e2 := math.Abs(SteerErrorSeconds(0.08, 0.5, 0.3, -0.008, -0.008, 1540))
	e3 := math.Abs(SteerErrorSeconds(0.16, 0.5, 0.3, -0.008, -0.008, 1540))
	if !(e1 > e2 && e2 > e3) {
		t.Errorf("error should decay with depth: %v, %v, %v", e1, e2, e3)
	}
	// Asymptotic 1/r decay: doubling r roughly halves the error.
	if ratio := e2 / e3; ratio < 1.5 || ratio > 3 {
		t.Errorf("decay ratio e(80mm)/e(160mm) = %v, want ≈2", ratio)
	}
}

func TestErrorSweepParallelMatchesSerial(t *testing.T) {
	cfg := smallConfig()
	cfg.Directivity = DefaultDirectivity()
	opt := SweepOptions{StrideTheta: 2, StridePhi: 2, StrideDepth: 4, StrideElem: 3}
	serial := ErrorSweep(cfg, opt)
	opt.Parallel = true
	parallel := ErrorSweep(cfg, opt)
	if serial.N != parallel.N || serial.NAccepted != parallel.NAccepted {
		t.Fatalf("counts differ: %+v vs %+v", serial, parallel)
	}
	if math.Abs(serial.MeanAbsSec-parallel.MeanAbsSec) > 1e-18 ||
		serial.MaxAbsSecAcc != parallel.MaxAbsSecAcc ||
		serial.MaxAbsSecAll != parallel.MaxAbsSecAll {
		t.Errorf("stats differ: %+v vs %+v", serial, parallel)
	}
}

func TestErrorSweepPaperNumbers(t *testing.T) {
	// §VI-A: max 3.1 µs (99 samples) after directivity filtering; average
	// ≈44.6 ns (1.4285 samples); the unfiltered worst case approaches the
	// theoretical 6.7 µs (214 samples) bound.
	cfg := paperConfig()
	cfg.Directivity = DefaultDirectivity()
	st := ErrorSweep(cfg, SweepOptions{StrideTheta: 4, StridePhi: 4, StrideDepth: 4, StrideElem: 7, Parallel: true})
	fs := conv.Fs
	if m := st.MeanAbsSecAcc * fs; m < 1.0 || m > 2.0 {
		t.Errorf("filtered mean = %.3f samples, paper band ≈1.43", m)
	}
	if m := st.MaxAcceptedSamples(fs); m < 60 || m > 130 {
		t.Errorf("filtered max = %.1f samples, paper ≈99", m)
	}
	if m := st.MaxAllSamples(fs); m < 180 || m > 230 {
		t.Errorf("unfiltered max = %.1f samples, bound ≈214", m)
	}
	t.Logf("steer error: mean(acc)=%.3f samples (%.1f ns), max(acc)=%.1f samples (%.2f µs), max(all)=%.1f samples",
		st.MeanAbsSecAcc*fs, st.MeanAbsSecAcc*1e9, st.MaxAcceptedSamples(fs),
		st.MaxAbsSecAcc*1e6, st.MaxAllSamples(fs))
}

func TestTaylorBoundValidityRegion(t *testing.T) {
	// Far outside the far field (r below the aperture offset) the bound
	// must blow up or go infinite rather than pretend accuracy.
	b := TaylorBoundSeconds(0.0002, 0.6, 0.6, 0.0096, 0.0096, 1540)
	if !math.IsInf(b, 1) && b < 1e-4 {
		t.Errorf("near-field bound %v suspiciously small", b)
	}
	// Deep on-axis: essentially exact.
	b = TaylorBoundSeconds(0.19, 0.1, 0.1, 0.001, 0.001, 1540)
	if b > 1e-9 {
		t.Errorf("deep small-aperture bound = %v s", b)
	}
}

func TestWorstTaylorBoundMatchesPaper(t *testing.T) {
	// The paper derives ≈6.7 µs (214 samples at 32 MHz) as the loose
	// theoretical bound on the steering error.
	cfg := paperConfig()
	bound := WorstTaylorBound(cfg, 1.0)
	samples := conv.SecondsToSamples(bound)
	if samples < 120 || samples > 320 {
		t.Errorf("worst Taylor bound = %.1f samples, paper quotes ≈214", samples)
	}
	t.Logf("Lagrange bound = %.2f µs = %.0f samples (paper: 6.7 µs / 214)", bound*1e6, samples)
	// The bound must dominate every observed error (it is a bound).
	st := ErrorSweep(cfg, SweepOptions{StrideTheta: 8, StridePhi: 8, StrideDepth: 8, StrideElem: 9, Parallel: true})
	if st.MaxAbsSecAll > bound*1.05 {
		t.Errorf("observed max %.2f µs exceeds bound %.2f µs", st.MaxAbsSecAll*1e6, bound*1e6)
	}
}

func TestFixedPointMonteCarlo13Bit(t *testing.T) {
	// §VI-A: "33% of the echo samples experience this additional inaccuracy
	// if using 13 bit integers". With integer storage the three rounding
	// errors are uniform ±0.5 and P(|e₁+e₂+e₃| ≥ ½ crossing) = 1/3.
	res := FixedPointMonteCarlo(2_000_000, fixed.U13p0,
		fixed.Format{IntBits: 13, FracBits: 0, Signed: true}, 1)
	f := res.OffFraction()
	if f < 0.30 || f > 0.36 {
		t.Errorf("13-bit mismatch fraction = %.4f, paper says ≈0.33", f)
	}
	if res.MaxIndexOff < 1 || res.MaxIndexOff > 2 {
		t.Errorf("13-bit max index offset = %d", res.MaxIndexOff)
	}
	t.Logf("13-bit integers: %.2f%% indices off (paper: 33%%)", 100*f)
}

func TestFixedPointMonteCarlo18Bit(t *testing.T) {
	// §VI-A: "this fraction is reduced to less than 2% when using a 18-bit
	// (13.5) fixed point representation". With the Fig. 4 datapath rounding
	// ref, x and y corrections separately we measure ≈2.4 %; pre-combining
	// the two corrections (two roundings instead of three) lands below the
	// paper's 2 % — see EXPERIMENTS.md.
	res := FixedPointMonteCarlo(2_000_000, fixed.U13p5, fixed.S13p4, 1)
	f := res.OffFraction()
	if f < 0.015 || f > 0.035 {
		t.Errorf("18-bit three-rounding mismatch fraction = %.4f, expected ≈0.024", f)
	}
	comb := FixedPointMonteCarloCombined(2_000_000, fixed.U13p5, fixed.S13p4, 1)
	fc := comb.OffFraction()
	if fc >= 0.02 || fc < 0.002 {
		t.Errorf("18-bit combined mismatch fraction = %.4f, paper says <0.02", fc)
	}
	if fc >= f {
		t.Error("combining corrections must reduce the mismatch fraction")
	}
	t.Logf("18-bit (13.5): %.3f%% (3 roundings) / %.3f%% (combined; paper <2%%)", 100*f, 100*fc)
}

func TestFixedPointMonteCarlo14Bit(t *testing.T) {
	// The 14-bit design point: ref u13.1, corrections s9.4. Expect between
	// the 18-bit (≈2%) and 13-bit-integer (33%) extremes.
	ref14, corr14 := Bits14Config()
	res := FixedPointMonteCarlo(1_000_000, ref14, corr14, 1)
	f := res.OffFraction()
	if f <= 0.02 || f >= 0.33 {
		t.Errorf("14-bit mismatch fraction = %.4f, expected between the extremes", f)
	}
	t.Logf("14-bit (u13.1/s9.4): %.2f%% indices off", 100*f)
}

func TestExpectedAbsQuantErrorMatchesTableII(t *testing.T) {
	// Table II inaccuracy column: 1.44 avg at 18 bit and 1.55 at 14 bit =
	// 1.4285 algorithmic + the expected |quantization error|.
	const alg = 1.4285
	e18 := ExpectedAbsQuantError(1_000_000, fixed.U13p5, fixed.S13p4, 7)
	if got := alg + e18; got < 1.42 || got > 1.47 {
		t.Errorf("18-bit avg inaccuracy = %.4f samples, Table II says 1.44", got)
	}
	ref14, corr14 := Bits14Config()
	e14 := ExpectedAbsQuantError(1_000_000, ref14, corr14, 7)
	if got := alg + e14; got < 1.50 || got > 1.60 {
		t.Errorf("14-bit avg inaccuracy = %.4f samples, Table II says 1.55", got)
	}
	t.Logf("avg inaccuracy: 18b=%.4f (paper 1.44), 14b=%.4f (paper 1.55)", alg+e18, alg+e14)
}

func TestMonteCarloDeterministic(t *testing.T) {
	a := FixedPointMonteCarlo(10_000, fixed.U13p5, fixed.S13p4, 42)
	b := FixedPointMonteCarlo(10_000, fixed.U13p5, fixed.S13p4, 42)
	if a != b {
		t.Error("same seed must reproduce identical results")
	}
	c := FixedPointMonteCarlo(10_000, fixed.U13p5, fixed.S13p4, 43)
	if a == c {
		t.Error("different seeds should differ")
	}
	var empty MonteCarloResult
	if empty.OffFraction() != 0 {
		t.Error("empty result fraction should be 0")
	}
}

func TestDepthErrorProfileDecays(t *testing.T) {
	cfg := smallConfig()
	prof := DepthErrorProfile(cfg, 0, 0, 3) // extreme steering corner
	if len(prof) != cfg.Vol.Depth.N {
		t.Fatalf("profile length = %d", len(prof))
	}
	if prof[0] <= prof[len(prof)-1] {
		t.Errorf("mean error should decay with depth: first %v, last %v",
			prof[0], prof[len(prof)-1])
	}
	for i, v := range prof {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("profile[%d] = %v", i, v)
		}
	}
}
