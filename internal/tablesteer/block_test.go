package tablesteer

import (
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

func blockSetup(bits int) *Provider {
	cfg := Config{
		Vol:  scan.NewVolume(geom.Radians(60), geom.Radians(60), 0.06, 7, 6, 12),
		Arr:  xdcr.NewArray(8, 6, 0.385e-3/2),
		Conv: delay.Converter{C: 1540, Fs: 32e6},
	}
	if bits == 14 {
		cfg.RefFmt, cfg.CorrFmt = Bits14Config()
	} else {
		cfg.RefFmt, cfg.CorrFmt = Bits18Config()
	}
	return New(cfg)
}

// TestFillNappeBitIdentical holds the block fill — per-nappe reference
// unfold plus separable broadcast corrections — to the scalar reference for
// the float and both fixed-point datapaths, at every depth. Odd and even
// element axes exercise both folding branches.
func TestFillNappeBitIdentical(t *testing.T) {
	cases := []struct {
		bits  int
		fixed bool
	}{{18, false}, {18, true}, {14, true}}
	for _, tc := range cases {
		p := blockSetup(tc.bits)
		p.UseFixed = tc.fixed
		odd := New(Config{
			Vol:    p.Cfg.Vol,
			Arr:    xdcr.NewArray(7, 5, 0.385e-3/2),
			Conv:   p.Cfg.Conv,
			RefFmt: p.Cfg.RefFmt, CorrFmt: p.Cfg.CorrFmt,
		})
		odd.UseFixed = tc.fixed
		for _, prov := range []*Provider{p, odd} {
			l := prov.Layout()
			dst := make([]float64, l.BlockLen())
			for id := 0; id < prov.Cfg.Vol.Depth.N; id++ {
				prov.FillNappe(id, dst)
				for it := 0; it < l.NTheta; it++ {
					for ip := 0; ip < l.NPhi; ip++ {
						for ej := 0; ej < l.NY; ej++ {
							for ei := 0; ei < l.NX; ei++ {
								want := prov.DelaySamples(it, ip, id, ei, ej)
								got := dst[l.Index(it, ip, ei, ej)]
								if got != want {
									t.Fatalf("%s %d×%d id=%d (%d,%d,%d,%d): block %v != scalar %v",
										prov.Name(), l.NX, l.NY, id, it, ip, ei, ej, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestBlockLayoutMatchesConfig(t *testing.T) {
	p := blockSetup(18)
	want := delay.Layout{NTheta: 7, NPhi: 6, NX: 8, NY: 6}
	if p.Layout() != want {
		t.Errorf("layout = %+v, want %+v", p.Layout(), want)
	}
	var _ delay.BlockProvider = p
}

// TestFillNappe16BitIdentical holds the native quantized fill to
// delay.QuantizeNappe over the float fill for the float and both
// fixed-point datapaths (odd axes exercise the folding branches).
func TestFillNappe16BitIdentical(t *testing.T) {
	cases := []struct {
		bits  int
		fixed bool
	}{{18, false}, {18, true}, {14, true}}
	for _, tc := range cases {
		p := blockSetup(tc.bits)
		p.UseFixed = tc.fixed
		odd := New(Config{
			Vol:    p.Cfg.Vol,
			Arr:    xdcr.NewArray(7, 5, 0.385e-3/2),
			Conv:   p.Cfg.Conv,
			RefFmt: p.Cfg.RefFmt, CorrFmt: p.Cfg.CorrFmt,
		})
		odd.UseFixed = tc.fixed
		for _, prov := range []*Provider{p, odd} {
			l := prov.Layout()
			wide := make([]float64, l.BlockLen())
			want := make(delay.Block16, l.BlockLen())
			got := make(delay.Block16, l.BlockLen())
			for id := 0; id < prov.Cfg.Vol.Depth.N; id++ {
				prov.FillNappe(id, wide)
				delay.QuantizeNappe(want, wide)
				prov.FillNappe16(id, got)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("bits=%d fixed=%v id=%d slot %d: native %d != quantized %d",
							tc.bits, tc.fixed, id, k, got[k], want[k])
					}
				}
			}
		}
	}
	var _ delay.BlockProvider = (*Provider)(nil)
}
