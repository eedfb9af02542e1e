package tablefree

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

func blockSetup() *Provider {
	return New(Config{
		Vol:  scan.NewVolume(geom.Radians(60), geom.Radians(60), 0.06, 7, 6, 12),
		Arr:  xdcr.NewArray(8, 5, 0.385e-3/2),
		Conv: delay.Converter{C: 1540, Fs: 32e6},
	})
}

// TestFillNappeBitIdentical holds the block fill to Index16 of the scalar
// reference for both the ideal-PWL and the fixed-point datapaths, at every
// depth.
func TestFillNappeBitIdentical(t *testing.T) {
	ideal, fixed := blockSetup(), blockSetup()
	fixed.UseFixed = true
	conform(t, all(ideal.Name(), ideal), all(fixed.Name(), fixed))
	var _ delay.BlockProvider = (*Provider)(nil)
}

func TestLayoutMatchesConfig(t *testing.T) {
	p := blockSetup()
	want := delay.Layout{NTheta: 7, NPhi: 6, NX: 8, NY: 5}
	if p.Layout() != want {
		t.Errorf("layout = %+v, want %+v", p.Layout(), want)
	}
	var _ delay.BlockProvider = p
}

// TestFillNappe16BitIdentical drives the ideal PWL's fill — the scalar
// law — past the int16 range, as TestFusedFill16Saturates drives the fused
// fixed kernel: deep nappes must pin at MaxInt16 exactly where Index16
// does, the saturated index a long-window session reads as "use the scalar
// law".
func TestFillNappe16BitIdentical(t *testing.T) {
	p := New(Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(40), 1.0, 4, 3, 9),
		Arr:  xdcr.NewArray(6, 5, 0.2e-3),
		Conv: delay.Converter{C: 1540, Fs: 32e6},
	})
	if v := conform(t, all("deep", p)); v.hi != math.MaxInt16 || v.lo >= math.MaxInt16/2 {
		t.Fatalf("index range [%d, %d] does not straddle saturation", v.lo, v.hi)
	}
}
