package delay

import (
	"testing"

	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

func TestLayoutIndexing(t *testing.T) {
	l := Layout{NTheta: 3, NPhi: 4, NX: 5, NY: 2}
	if !l.Valid() {
		t.Fatal("layout should be valid")
	}
	if l.BlockLen() != 3*4*5*2 {
		t.Errorf("BlockLen = %d", l.BlockLen())
	}
	if l.VoxelStride() != 10 {
		t.Errorf("VoxelStride = %d", l.VoxelStride())
	}
	// Index must enumerate [0, BlockLen) exactly once in layout order.
	seen := make([]bool, l.BlockLen())
	want := 0
	for it := 0; it < l.NTheta; it++ {
		for ip := 0; ip < l.NPhi; ip++ {
			for ej := 0; ej < l.NY; ej++ {
				for ei := 0; ei < l.NX; ei++ {
					got := l.Index(it, ip, ei, ej)
					if got != want {
						t.Fatalf("Index(%d,%d,%d,%d) = %d, want %d", it, ip, ei, ej, got, want)
					}
					seen[got] = true
					want++
				}
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("slot %d never indexed", i)
		}
	}
	if (Layout{}).Valid() {
		t.Error("zero layout must be invalid")
	}
}

// checkFill16 holds bp's FillNappe16 to Index16 of the scalar law, slot by
// slot at every coordinate of nappes ids, and returns the slots seen.
func checkFill16(t *testing.T, bp BlockProvider, ids []int) []int16 {
	t.Helper()
	l := bp.Layout()
	dst := make(Block16, l.BlockLen())
	var seen []int16
	for _, id := range ids {
		bp.FillNappe16(id, dst)
		for it := 0; it < l.NTheta; it++ {
			for ip := 0; ip < l.NPhi; ip++ {
				for ej := 0; ej < l.NY; ej++ {
					for ei := 0; ei < l.NX; ei++ {
						want := Index16(bp.DelaySamples(it, ip, id, ei, ej))
						got := dst[l.Index(it, ip, ei, ej)]
						if got != want {
							t.Fatalf("id=%d (%d,%d,%d,%d): block %d != Index16(scalar) %d",
								id, it, ip, ei, ej, got, want)
						}
					}
				}
			}
		}
		seen = append(seen, dst...)
	}
	return seen
}

// TestExactFillNappeBitIdentical holds the exact fill to Index16 of its
// scalar law at every coordinate of three nappes.
func TestExactFillNappeBitIdentical(t *testing.T) {
	e, _, _ := smallSetup()
	checkFill16(t, e, []int{0, e.Vol.Depth.N / 2, e.Vol.Depth.N - 1})
}

func TestScalarAdapterMatchesNativeFill(t *testing.T) {
	e, _, _ := smallSetup()
	adapter := &ScalarAdapter{P: e, L: e.Layout()}
	if adapter.Name() != e.Name() {
		t.Errorf("adapter name = %q", adapter.Name())
	}
	if adapter.DelaySamples(1, 2, 3, 4, 5) != e.DelaySamples(1, 2, 3, 4, 5) {
		t.Error("adapter scalar path must forward")
	}
	adapterMatchesNative(t, 7)
}

func TestAsBlockSelectsNativeOrAdapter(t *testing.T) {
	e, _, _ := smallSetup()
	l := e.Layout()
	if bp := AsBlock(e, l); bp != BlockProvider(e) {
		t.Error("matching layout must return the native provider")
	}
	other := l
	other.NTheta++
	bp := AsBlock(e, other)
	if _, ok := bp.(*ScalarAdapter); !ok {
		t.Errorf("mismatched layout must wrap in ScalarAdapter, got %T", bp)
	}
	if bp.Layout() != other {
		t.Error("adapter must report the requested layout")
	}
}

// TestCompareMatchesPairwiseSweep holds Compare to the statistics of an
// independent pair-by-pair sweep, for the full aperture and for a strided
// one; a stride below 1 means the full aperture.
func TestCompareMatchesPairwiseSweep(t *testing.T) {
	v := scan.NewVolume(geom.Radians(40), geom.Radians(40), 0.05, 5, 5, 8)
	a := xdcr.NewArray(6, 6, 0.385e-3/2)
	e := NewExact(v, a, geom.Vec3{}, conv)
	// A second exact provider displaced slightly in origin gives nonzero
	// but deterministic errors for the statistics comparison.
	p := NewExact(v, a, geom.Vec3{Z: 0.5e-3}, conv)
	for _, stride := range []int{1, 2} {
		var want Stats
		v.Walk(scan.NappeOrder, func(ix scan.Index) {
			for ej := 0; ej < a.NY; ej += stride {
				for ei := 0; ei < a.NX; ei += stride {
					want.Add(p.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej),
						e.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej))
				}
			}
		})
		if got := Compare(p, e, stride); got != want {
			t.Errorf("stride %d: Compare diverges from the pairwise sweep:\n sweep   %v\n Compare %v",
				stride, want.String(), got.String())
		}
		if want.MaxAbs == 0 {
			t.Error("displaced origin should produce nonzero error")
		}
		if stride == 1 {
			for _, clamped := range []int{0, -3} {
				if got := Compare(p, e, clamped); got != want {
					t.Errorf("stride %d must compare the full aperture: %v", clamped, got.String())
				}
			}
		}
	}
}
