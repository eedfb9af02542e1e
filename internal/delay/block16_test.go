package delay

import (
	"math"
	"testing"
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
}

func TestQuantizeNappeMatchesSlotwiseIndex16(t *testing.T) {
	src := []float64{0.2, -3.7, 40000, -40000, 812.5, 811.5}
	dst := make(Block16, len(src))
	QuantizeNappe(dst, src)
	for i, v := range src {
		if dst[i] != Index16(v) {
			t.Errorf("slot %d: %d != Index16(%v) = %d", i, dst[i], v, Index16(v))
		}
	}
}

func TestExactFillNappe16BitIdentical(t *testing.T) {
	// The native quantized fill must equal QuantizeNappe over the float
	// fill, slot for slot — the BlockProvider contract.
	e, _, _ := smallSetup()
	l := e.Layout()
	wide := make([]float64, l.BlockLen())
	want := make(Block16, l.BlockLen())
	got := make(Block16, l.BlockLen())
	for _, id := range []int{0, e.Vol.Depth.N / 2, e.Vol.Depth.N - 1} {
		e.FillNappe(id, wide)
		QuantizeNappe(want, wide)
		e.FillNappe16(id, got)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("id=%d slot %d: native %d != quantized %d", id, k, got[k], want[k])
			}
		}
	}
}

func TestScalarAdapterFillNappe16(t *testing.T) {
	e, _, _ := smallSetup()
	l := e.Layout()
	adapter := &ScalarAdapter{P: e, L: l}
	native := make(Block16, l.BlockLen())
	adapted := make(Block16, l.BlockLen())
	e.FillNappe16(3, native)
	adapter.FillNappe16(3, adapted)
	for k := range native {
		if native[k] != adapted[k] {
			t.Fatalf("slot %d: native %d != adapter %d", k, native[k], adapted[k])
		}
	}
}
