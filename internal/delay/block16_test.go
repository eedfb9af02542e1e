package delay

import (
	"math"
	"slices"
	"testing"

	"ultrabeam/internal/geom"
)

func TestIndex16MatchesIndex(t *testing.T) {
	// Inside the int16 range the quantized index must equal the wide one
	// exactly — same math.Round, no tolerance.
	cases := []float64{0, 0.4, 0.5, 0.6, 1.5, 2.5, -0.4, -0.5, -1.5,
		123.49, 123.5, 8000.2, 32766.4, 32766.5, -32767.2}
	for _, v := range cases {
		if got, want := Index16(v), Index(v); int(got) != want {
			t.Errorf("Index16(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestIndex16Saturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int16
	}{
		{math.MaxInt16, math.MaxInt16},
		{math.MaxInt16 + 0.4, math.MaxInt16},
		{math.MaxInt16 + 1, math.MaxInt16},
		{1e12, math.MaxInt16},
		{math.Inf(1), math.MaxInt16},
		{math.MinInt16, math.MinInt16},
		{math.MinInt16 - 1, math.MinInt16},
		{-1e12, math.MinInt16},
		{math.Inf(-1), math.MinInt16},
		{math.NaN(), math.MaxInt16},
	}
	for _, c := range cases {
		if got := Index16(c.in); got != c.want {
			t.Errorf("Index16(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// Saturated extremes must stay out-of-window for any window the narrow
	// path accepts: MaxInt16 ≥ MaxEchoWindow and MinInt16 < 0.
	if MaxEchoWindow > math.MaxInt16 {
		t.Error("MaxEchoWindow admits windows the saturated index could alias into")
	}
	// A NaN delay reads silence through the scalar rounding too, on every
	// platform: Go leaves NaN→int to the platform, and arm64's 0 would read
	// sample 0.
	if got := Index(math.NaN()); got != -1 {
		t.Errorf("Index(NaN) = %d, want -1", got)
	}
}

// TestExactFillNappe16BitIdentical holds the exact fill to Index16 of the
// scalar law where it saturates: an emission origin 2 m behind the array
// puts every delay beyond 32767 samples, so every slot must be the
// saturated math.MaxInt16 the long-window session reads as "use the scalar
// law".
func TestExactFillNappe16BitIdentical(t *testing.T) {
	_, v, a := smallSetup()
	far := NewExact(v, a, geom.Vec3{Z: -2}, conv)
	for k, d := range checkFill16(t, far, []int{0, v.Depth.N - 1}) {
		if d != math.MaxInt16 {
			t.Fatalf("slot %d = %d: the far origin must saturate every delay", k, d)
		}
	}
}

// TestScalarAdapterFillNappe16 holds the adapter's fill of a nappe to the
// native one (adapterMatchesNative).
func TestScalarAdapterFillNappe16(t *testing.T) { adapterMatchesNative(t, 3) }

// adapterMatchesNative holds ScalarAdapter's fill of nappe id, over the
// exact provider's own layout, to its native fill.
func adapterMatchesNative(t *testing.T, id int) {
	t.Helper()
	e, _, _ := smallSetup()
	l := e.Layout()
	native, adapted := make(Block16, l.BlockLen()), make(Block16, l.BlockLen())
	e.FillNappe16(id, native)
	(&ScalarAdapter{P: e, L: l}).FillNappe16(id, adapted)
	if !slices.Equal(native, adapted) {
		t.Fatalf("nappe %d: the adapter's fill differs from the native one", id)
	}
}
