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
	conform(t, 1, blockCases()...)
}

// TestFillNappe16BitIdentical is the matrix over the served shapes.
func TestFillNappe16BitIdentical(t *testing.T) {
	for _, s := range servedShapes() {
		conform(t, s.Stride, s.provider(t))
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
