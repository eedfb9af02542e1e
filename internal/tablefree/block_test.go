package tablefree

import (
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

// TestFillNappeBitIdentical holds the block fill to the scalar reference for
// both the ideal-PWL and the fixed-point datapaths, at every depth.
func TestFillNappeBitIdentical(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		p := blockSetup()
		p.UseFixed = fixed
		l := p.Layout()
		dst := make([]float64, l.BlockLen())
		for id := 0; id < p.Cfg.Vol.Depth.N; id++ {
			p.FillNappe(id, dst)
			for it := 0; it < l.NTheta; it++ {
				for ip := 0; ip < l.NPhi; ip++ {
					for ej := 0; ej < l.NY; ej++ {
						for ei := 0; ei < l.NX; ei++ {
							want := p.DelaySamples(it, ip, id, ei, ej)
							got := dst[l.Index(it, ip, ei, ej)]
							if got != want {
								t.Fatalf("%s id=%d (%d,%d,%d,%d): block %v != scalar %v",
									p.Name(), id, it, ip, ei, ej, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestLayoutMatchesConfig(t *testing.T) {
	p := blockSetup()
	want := delay.Layout{NTheta: 7, NPhi: 6, NX: 8, NY: 5}
	if p.Layout() != want {
		t.Errorf("layout = %+v, want %+v", p.Layout(), want)
	}
	var _ delay.BlockProvider = p
}

// TestFillNappe16BitIdentical holds the native quantized fill to
// delay.QuantizeNappe over the float fill, slot for slot, on both datapaths.
func TestFillNappe16BitIdentical(t *testing.T) {
	for _, fixed := range []bool{false, true} {
		p := blockSetup()
		p.UseFixed = fixed
		l := p.Layout()
		wide := make([]float64, l.BlockLen())
		want := make(delay.Block16, l.BlockLen())
		got := make(delay.Block16, l.BlockLen())
		for id := 0; id < p.Cfg.Vol.Depth.N; id++ {
			p.FillNappe(id, wide)
			delay.QuantizeNappe(want, wide)
			p.FillNappe16(id, got)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s fixed=%v id=%d slot %d: native %d != quantized %d",
						p.Name(), fixed, id, k, got[k], want[k])
				}
			}
		}
	}
	var _ delay.BlockProvider = (*Provider)(nil)
}
