package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSinc(t *testing.T) {
	if Sinc(0) != 1 {
		t.Error("sinc(0) != 1")
	}
	for _, k := range []float64{1, 2, 3, -4} {
		if math.Abs(Sinc(k)) > 1e-15 {
			t.Errorf("sinc(%v) = %v, want 0", k, Sinc(k))
		}
	}
	if math.Abs(Sinc(0.5)-2/math.Pi) > 1e-12 {
		t.Errorf("sinc(0.5) = %v", Sinc(0.5))
	}
}

func TestLowpassFIRDCGain(t *testing.T) {
	h, err := LowpassFIR(0.2, 31)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain = %v", sum)
	}
	// Linear phase: symmetric taps.
	for i := range h {
		if math.Abs(h[i]-h[len(h)-1-i]) > 1e-12 {
			t.Fatalf("taps not symmetric at %d", i)
		}
	}
}

func TestLowpassFIRFrequencyResponse(t *testing.T) {
	h, err := LowpassFIR(0.1, 63)
	if err != nil {
		t.Fatal(err)
	}
	gain := func(f float64) float64 {
		re, im := 0.0, 0.0
		for n, v := range h {
			re += v * math.Cos(2*math.Pi*f*float64(n))
			im -= v * math.Sin(2*math.Pi*f*float64(n))
		}
		return math.Hypot(re, im)
	}
	if g := gain(0.02); g < 0.95 || g > 1.05 {
		t.Errorf("passband gain = %v", g)
	}
	if g := gain(0.25); g > 0.01 {
		t.Errorf("stopband gain = %v (want < -40 dB)", g)
	}
}

func TestLowpassFIRValidation(t *testing.T) {
	for _, tc := range []struct {
		cutoff float64
		taps   int
	}{{0, 31}, {0.5, 31}, {0.2, 2}, {0.2, 30}} {
		if _, err := LowpassFIR(tc.cutoff, tc.taps); err == nil {
			t.Errorf("LowpassFIR(%v, %d) should fail", tc.cutoff, tc.taps)
		}
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := Convolve(x, []float64{1})
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity convolution broken at %d", i)
		}
	}
	if Convolve(nil, []float64{1}) != nil || Convolve(x, nil) != nil {
		t.Error("empty inputs should give nil")
	}
}

func TestConvolveShiftAlignment(t *testing.T) {
	// A centered impulse kernel must not shift the signal ("same" mode).
	x := []float64{0, 0, 1, 0, 0}
	h := []float64{0, 1, 0} // 3-tap identity centered
	y := Convolve(x, h)
	if y[2] != 1 || y[1] != 0 || y[3] != 0 {
		t.Errorf("convolution misaligned: %v", y)
	}
}

func TestDemodulateRecoversEnvelope(t *testing.T) {
	// A pure tone at f0 with Gaussian envelope: envelope detection must
	// recover the envelope peak position and approximate amplitude.
	fs, f0 := 32e6, 4e6
	n := 800
	rf := make([]float64, n)
	center := 400.0
	sigma := 40.0
	for i := range rf {
		tEnv := (float64(i) - center) / sigma
		rf[i] = math.Exp(-tEnv*tEnv/2) * math.Cos(2*math.Pi*f0/fs*float64(i))
	}
	iq, err := Demodulate(rf, f0, fs, f0/fs, 31)
	if err != nil {
		t.Fatal(err)
	}
	env := iq.Envelope()
	p := PeakIndex(env)
	if p < 390 || p > 410 {
		t.Errorf("envelope peak at %d, want ≈400", p)
	}
	if env[p] < 0.8 || env[p] > 1.2 {
		t.Errorf("envelope peak amplitude = %v, want ≈1", env[p])
	}
	// Envelope must be smooth: no residual carrier ripple beyond a few %.
	ripple := 0.0
	for i := 395; i <= 405; i++ {
		d := math.Abs(env[i] - env[i-1])
		if d > ripple {
			ripple = d
		}
	}
	if ripple > 0.05 {
		t.Errorf("carrier ripple %v on envelope top", ripple)
	}
}

func TestEnvelopeNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rf := make([]float64, 128)
		s := seed
		for i := range rf {
			s = s*6364136223846793005 + 1442695040888963407
			rf[i] = float64(int32(s>>33)) / math.MaxInt32
		}
		iq, err := Demodulate(rf, 4e6, 32e6, 4e6/32e6, 31)
		if err != nil {
			return false
		}
		for _, v := range iq.Envelope() {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLogCompress(t *testing.T) {
	env := []float64{1, 0.1, 0.01, 0, -1}
	db := LogCompress(env, 40)
	if db[0] != 0 {
		t.Errorf("peak must map to 0 dB, got %v", db[0])
	}
	if math.Abs(db[1]+20) > 1e-12 {
		t.Errorf("0.1 → %v dB, want -20", db[1])
	}
	if db[2] != -40 {
		t.Errorf("0.01 → %v dB, want clamp at -40", db[2])
	}
	if db[3] != -40 || db[4] != -40 {
		t.Error("non-positive values must clamp")
	}
	allZero := LogCompress([]float64{0, 0}, 60)
	if allZero[0] != -60 || allZero[1] != -60 {
		t.Error("all-zero envelope maps to floor")
	}
}

func TestPeakIndex(t *testing.T) {
	if PeakIndex(nil) != -1 {
		t.Error("empty input")
	}
	if PeakIndex([]float64{1, 5, 2, 5}) != 1 {
		t.Error("first max on ties")
	}
}

func TestFWHMTriangle(t *testing.T) {
	// Symmetric triangle of height 1, base 2w: FWHM = w.
	w := 20
	x := make([]float64, 2*w+1)
	for i := range x {
		d := math.Abs(float64(i - w))
		x[i] = 1 - d/float64(w)
	}
	got := FWHM(x)
	if math.Abs(got-float64(w)) > 0.01 {
		t.Errorf("triangle FWHM = %v, want %d", got, w)
	}
}

func TestFWHMGaussian(t *testing.T) {
	sigma := 15.0
	n := 200
	x := make([]float64, n)
	for i := range x {
		d := (float64(i) - 100) / sigma
		x[i] = math.Exp(-d * d / 2)
	}
	want := 2 * math.Sqrt(2*math.Ln2) * sigma // 2.355 σ
	if got := FWHM(x); math.Abs(got-want) > 0.5 {
		t.Errorf("gaussian FWHM = %v, want %v", got, want)
	}
}

func TestFWHMDegenerate(t *testing.T) {
	if FWHM(nil) != 0 {
		t.Error("empty")
	}
	if FWHM([]float64{0, 0}) != 0 {
		t.Error("flat zero")
	}
}

func TestRMS(t *testing.T) {
	if RMS(nil) != 0 {
		t.Error("empty RMS")
	}
	if got := RMS([]float64{3, 4, 3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", got)
	}
}
