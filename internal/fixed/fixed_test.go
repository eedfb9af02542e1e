package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatBits(t *testing.T) {
	tests := []struct {
		f    Format
		bits int
		str  string
	}{
		{U13p5, 18, "u13.5"},
		{S13p4, 18, "s13.4"},
		{U13p1, 14, "u13.1"},
		{S13p0, 14, "s13.0"},
		{U13p0, 13, "u13.0"},
	}
	for _, tt := range tests {
		if got := tt.f.Bits(); got != tt.bits {
			t.Errorf("%v.Bits() = %d, want %d", tt.f, got, tt.bits)
		}
		if got := tt.f.String(); got != tt.str {
			t.Errorf("String() = %q, want %q", got, tt.str)
		}
	}
}

func TestFormatRange(t *testing.T) {
	if got := U13p5.Resolution(); got != 1.0/32 {
		t.Errorf("U13p5 resolution = %v, want 1/32", got)
	}
	if got := U13p5.MaxValue(); got != 8192-1.0/32 {
		t.Errorf("U13p5 max = %v, want 8191.96875", got)
	}
	if got := U13p5.MinValue(); got != 0 {
		t.Errorf("U13p5 min = %v, want 0", got)
	}
	if got := S13p4.MinValue(); got != -8192 {
		t.Errorf("S13p4 min = %v, want -8192", got)
	}
}

func TestFormatValid(t *testing.T) {
	valid := []Format{U13p5, S13p4, U13p1, S13p0, U13p0, {IntBits: 20, FracBits: 20, Signed: true}}
	for _, f := range valid {
		if !f.Valid() {
			t.Errorf("%v should be valid", f)
		}
	}
	invalid := []Format{{}, {IntBits: -1, FracBits: 2}, {IntBits: 40, FracBits: 20}}
	for _, f := range invalid {
		if f.Valid() {
			t.Errorf("%v should be invalid", f)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	// Values exactly on the grid must round-trip bit-exactly.
	for _, f := range []Format{U13p5, S13p4, U13p1} {
		step := f.Resolution()
		for _, k := range []float64{0, 1, 7, 100.5, 8000} {
			x := k * step * 32 // arbitrary on-grid multiples
			x = math.Round(x/step) * step
			if x > f.MaxValue() {
				continue
			}
			v, sat := Quantize(x, f, RoundNearest)
			if sat {
				t.Fatalf("unexpected saturation quantizing %v into %v", x, f)
			}
			if got := v.Float(); got != x {
				t.Errorf("%v round-trip through %v = %v", x, f, got)
			}
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	v, sat := Quantize(1e9, U13p5, RoundNearest)
	if !sat {
		t.Fatal("expected saturation")
	}
	if v.Float() != U13p5.MaxValue() {
		t.Errorf("saturated value = %v, want %v", v.Float(), U13p5.MaxValue())
	}
	v, sat = Quantize(-5, U13p5, RoundNearest)
	if !sat || v.Float() != 0 {
		t.Errorf("unsigned negative should clamp to 0, got %v (sat=%v)", v.Float(), sat)
	}
	v, sat = Quantize(-1e9, S13p4, RoundNearest)
	if !sat || v.Float() != -8192 {
		t.Errorf("signed underflow clamp = %v (sat=%v)", v.Float(), sat)
	}
}

func TestMustQuantizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuantize should panic on saturation")
		}
	}()
	MustQuantize(1e9, U13p5, RoundNearest)
}

func TestRoundModes(t *testing.T) {
	f := Format{IntBits: 8, FracBits: 0, Signed: true}
	tests := []struct {
		x    float64
		mode RoundMode
		want int64
	}{
		{2.5, RoundNearest, 3},
		{-2.5, RoundNearest, -3},
		{2.5, RoundNearestEven, 2},
		{3.5, RoundNearestEven, 4},
		{2.9, RoundTruncate, 2},
		{-2.1, RoundTruncate, -3}, // floor semantics
	}
	for _, tt := range tests {
		v, _ := Quantize(tt.x, f, tt.mode)
		if v.Raw != tt.want {
			t.Errorf("Quantize(%v, %v) raw = %d, want %d", tt.x, tt.mode, v.Raw, tt.want)
		}
	}
}

func TestRoundModeString(t *testing.T) {
	if RoundNearest.String() != "nearest" || RoundTruncate.String() != "truncate" ||
		RoundNearestEven.String() != "nearest-even" {
		t.Error("RoundMode.String mismatch")
	}
	if RoundMode(99).String() != "RoundMode(99)" {
		t.Error("unknown RoundMode should self-describe")
	}
}

func TestAddAlignsBinaryPoints(t *testing.T) {
	a := MustQuantize(100.5, U13p5, RoundNearest) // u13.5
	b := MustQuantize(-0.25, S13p4, RoundNearest) // s13.4
	sum := Add(a, b)
	if got := sum.Float(); got != 100.25 {
		t.Errorf("100.5 + (-0.25) = %v", got)
	}
	if !sum.Fmt.Signed {
		t.Error("sum of signed+unsigned must be signed")
	}
	if sum.Fmt.FracBits != 5 {
		t.Errorf("sum frac bits = %d, want 5", sum.Fmt.FracBits)
	}
	if sum.Fmt.IntBits != 14 {
		t.Errorf("sum int bits = %d, want 14 (growth)", sum.Fmt.IntBits)
	}
}

func TestMulExact(t *testing.T) {
	f := Format{IntBits: 6, FracBits: 4}
	a := MustQuantize(2.5, f, RoundNearest)
	b := MustQuantize(1.25, f, RoundNearest)
	p := Mul(a, b)
	if got := p.Float(); got != 3.125 {
		t.Errorf("2.5*1.25 = %v", got)
	}
	if p.Fmt.FracBits != 8 || p.Fmt.IntBits != 12 {
		t.Errorf("product format = %v", p.Fmt)
	}
}

func TestConvertNarrowing(t *testing.T) {
	v := MustQuantize(3.4375, Format{IntBits: 6, FracBits: 6}, RoundNearest) // 3.4375 = 3 + 28/64
	got, sat := Convert(v, Format{IntBits: 6, FracBits: 2}, RoundNearest)
	if sat {
		t.Fatal("unexpected saturation")
	}
	if got.Float() != 3.5 {
		t.Errorf("3.4375 -> q6.2 nearest = %v, want 3.5", got.Float())
	}
	got, _ = Convert(v, Format{IntBits: 6, FracBits: 2}, RoundTruncate)
	if got.Float() != 3.25 {
		t.Errorf("3.4375 -> q6.2 truncate = %v, want 3.25", got.Float())
	}
}

func TestConvertWidening(t *testing.T) {
	v := MustQuantize(-7.5, Format{IntBits: 6, FracBits: 1, Signed: true}, RoundNearest)
	got, sat := Convert(v, Format{IntBits: 8, FracBits: 6, Signed: true}, RoundNearest)
	if sat || got.Float() != -7.5 {
		t.Errorf("widening convert = %v (sat=%v)", got.Float(), sat)
	}
}

func TestConvertSaturation(t *testing.T) {
	v := MustQuantize(500, Format{IntBits: 10, FracBits: 0}, RoundNearest)
	got, sat := Convert(v, Format{IntBits: 4, FracBits: 0}, RoundNearest)
	if !sat || got.Raw != 15 {
		t.Errorf("narrow convert should saturate at 15, got %d (sat=%v)", got.Raw, sat)
	}
}

func TestRoundHalfEvenShift(t *testing.T) {
	tests := []struct {
		x    int64
		n    uint
		want int64
	}{
		{0, 2, 0},
		{6, 2, 2},   // 1.5 -> 2
		{10, 2, 2},  // 2.5 -> 2 (even)
		{14, 2, 4},  // 3.5 -> 4 (even)
		{-6, 2, -2}, // -1.5 -> -2 (even)
		{7, 0, 7},
	}
	for _, tt := range tests {
		if got := roundHalfEvenShift(tt.x, tt.n); got != tt.want {
			t.Errorf("roundHalfEvenShift(%d,%d) = %d, want %d", tt.x, tt.n, got, tt.want)
		}
	}
}

func TestRoundToIndex(t *testing.T) {
	v := MustQuantize(103.53125, U13p5, RoundNearest)
	if got := v.RoundToIndex(); got != 104 {
		t.Errorf("RoundToIndex(103.53125) = %d, want 104", got)
	}
	v = MustQuantize(103.25, U13p5, RoundNearest)
	if got := v.RoundToIndex(); got != 103 {
		t.Errorf("RoundToIndex(103.25) = %d, want 103", got)
	}
}

func TestQuantError(t *testing.T) {
	// Error must be bounded by half an LSB for nearest rounding.
	f := S13p4
	for _, x := range []float64{0.3, -17.123, 511.0001, 0.03125} {
		e := QuantError(x, f, RoundNearest)
		if math.Abs(e) > f.Resolution()/2+1e-15 {
			t.Errorf("QuantError(%v) = %v exceeds half LSB %v", x, e, f.Resolution()/2)
		}
	}
}

// Property: for any in-range float, quantize-nearest error is ≤ LSB/2 and
// the raw word respects the format's saturation bounds.
func TestQuantizeProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 8000) // keep in range of S13p4
		v, sat := Quantize(x, S13p4, RoundNearest)
		if sat {
			return false
		}
		return math.Abs(v.Float()-x) <= S13p4.Resolution()/2+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add is exact — float of sum equals sum of floats.
func TestAddExactProperty(t *testing.T) {
	f := func(ra, rb int32) bool {
		a := Value{Raw: int64(ra % 100000), Fmt: S13p4}
		b := Value{Raw: int64(rb % 100000), Fmt: U13p5}
		s := Add(a, b)
		return math.Abs(s.Float()-(a.Float()+b.Float())) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Convert with widening then narrowing back returns the original.
func TestConvertRoundTripProperty(t *testing.T) {
	f := func(raw int16) bool {
		a := Value{Raw: int64(raw), Fmt: Format{IntBits: 11, FracBits: 4, Signed: true}}
		wide, sat1 := Convert(a, Format{IntBits: 13, FracBits: 8, Signed: true}, RoundNearest)
		back, sat2 := Convert(wide, a.Fmt, RoundNearest)
		return !sat1 && !sat2 && back.Raw == a.Raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
