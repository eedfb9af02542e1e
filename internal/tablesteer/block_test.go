package tablesteer

import (
	"fmt"
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

// blockCases returns the providers the fill tests cover: the float and
// both fixed-point datapaths, each on an even (8×6) and an odd (7×5)
// element grid so both folding branches run.
func blockCases() []*Provider {
	cases := []struct {
		bits  int
		fixed bool
	}{{18, false}, {18, true}, {14, true}}
	var provs []*Provider
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
		provs = append(provs, p, odd)
	}
	return provs
}

// TestFillNappeBitIdentical holds the block fill — per-nappe reference
// unfold plus separable broadcast corrections, rounded in the row — to
// Index16 of the scalar reference, slot by slot at every depth.
func TestFillNappeBitIdentical(t *testing.T) {
	for _, prov := range blockCases() {
		l := prov.Layout()
		checkFills(t, fmt.Sprintf("%s %d×%d", prov.Name(), l.NX, l.NY), prov)
	}
	var _ delay.BlockProvider = (*Provider)(nil)
}

// TestFillNappe16BitIdentical holds the native quantized fill to the
// generic one: delay.ScalarAdapter over the same provider's scalar law,
// which walks the block in layout order. A native fill that wrote the right
// values into the wrong slots would differ here.
func TestFillNappe16BitIdentical(t *testing.T) {
	for _, prov := range blockCases() {
		l := prov.Layout()
		adapter := &delay.ScalarAdapter{P: prov, L: l}
		want := make(delay.Block16, l.BlockLen())
		got := make(delay.Block16, l.BlockLen())
		for id := 0; id < prov.Cfg.Vol.Depth.N; id++ {
			adapter.FillNappe16(id, want)
			prov.FillNappe16(id, got)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s %d×%d fixed=%v id=%d slot %d: native %d != adapter %d",
						prov.Name(), l.NX, l.NY, prov.UseFixed, id, k, got[k], want[k])
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
