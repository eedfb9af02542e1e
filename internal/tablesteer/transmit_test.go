package tablesteer

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// TestWithTransmitRebuildsReferenceTable: an on-axis transmit derives a
// provider equal to one built directly with the new OriginZ (a fresh folded
// reference table, shared-correction semantics), and off-axis transmits are
// rejected — the folding symmetry requires O on the z axis.
func TestWithTransmitRebuildsReferenceTable(t *testing.T) {
	cfg := Config{
		Vol:  scan.NewVolume(geom.Radians(40), geom.Radians(20), 0.05, 5, 3, 8),
		Arr:  xdcr.NewArray(4, 4, 0.2e-3),
		Conv: delay.Converter{C: 1540, Fs: 32e6},
	}
	p := New(cfg)
	p.UseFixed = true
	tx := delay.Transmit{Origin: geom.Vec3{Z: -3e-3}}
	q, err := p.WithTransmit(tx)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.OriginZ = tx.Origin.Z
	want := New(dcfg)
	want.UseFixed = true
	for it := 0; it < cfg.Vol.Theta.N; it++ {
		for id := 0; id < cfg.Vol.Depth.N; id += 2 {
			if got, w := q.DelaySamples(it, 1, id, 2, 3), want.DelaySamples(it, 1, id, 2, 3); got != w {
				t.Fatalf("(%d,%d): %v != %v", it, id, got, w)
			}
		}
	}
	if _, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{X: 1e-3}}); err == nil {
		t.Error("off-axis transmit must be rejected")
	}
	if _, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Y: 1e-3, Z: -1e-3}}); err == nil {
		t.Error("off-axis transmit must be rejected")
	}
}

// TestMultiOriginSteeredError: steered delays from a displaced origin still
// follow the Taylor correction within the §V-A bound — the transmit leg is
// exact in the derived reference table; only the receive steering is
// approximated.
func TestMultiOriginSteeredError(t *testing.T) {
	cfg := smallConfig()
	txs, err := delay.ForTransmits(New(cfg), []delay.Transmit{{Origin: geom.Vec3{Z: -0.004}}})
	if err != nil {
		t.Fatal(err)
	}
	e := delay.NewExact(cfg.Vol, cfg.Arr, geom.Vec3{Z: -0.004}, cfg.Conv)
	worst := 0.0
	for it := 0; it < cfg.Vol.Theta.N; it += 4 {
		for id := 0; id < cfg.Vol.Depth.N; id += 8 {
			for _, el := range [][2]int{{0, 0}, {15, 15}} {
				worst = max(worst, math.Abs(txs[0].DelaySamples(it, 3, id, el[0], el[1])-
					e.DelaySamples(it, 3, id, el[0], el[1])))
			}
		}
	}
	if worst > 215 {
		t.Errorf("multi-origin steering error %v samples exceeds bound", worst)
	}
}

// TestMultiOriginMatchesExactPerOrigin: on the unsteered line of an odd grid
// the float datapath carries no Taylor error, so a transmit derived at each
// virtual-source origin must equal the exact law there, for every format
// pair and depth.
func TestMultiOriginMatchesExactPerOrigin(t *testing.T) {
	odd := blockSetup(18).Cfg
	odd.Vol = scan.NewVolume(geom.Radians(60), geom.Radians(60), 0.06, 7, 5, 12)
	origins := []float64{0, -3e-3, 2.5e-3, -5e-3, -10e-3}
	for _, f := range formatPairs {
		for _, cfg := range []Config{smallConfig(), odd} {
			cfg.RefFmt, cfg.CorrFmt = f.ref, f.corr
			p := New(cfg)
			itC, ipC := cfg.Vol.Theta.N/2, cfg.Vol.Phi.N/2
			for _, z := range origins {
				q, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: z}})
				if err != nil {
					t.Fatal(err)
				}
				e := delay.NewExact(cfg.Vol, cfg.Arr, geom.Vec3{Z: z}, cfg.Conv)
				for id := 0; id < cfg.Vol.Depth.N; id++ {
					for _, el := range [][2]int{{0, 0}, {5, 2}, {7, 5}} {
						got, want := q.DelaySamples(itC, ipC, id, el[0], el[1]), e.DelaySamples(itC, ipC, id, el[0], el[1])
						if math.Abs(got-want) > 1e-9 {
							t.Fatalf("%s z=%v id=%d element %v: unsteered %v != exact %v", f.name, z, id, el, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMultiOriginStorageScalesWithOrigins: transmits derived at N origins
// share one set of correction tables, so together they store Corr + N·Ref
// bits (the §V "multiple precalculated delay tables" at their extra cost),
// while each insonification still streams a single reference table — the
// off-chip bandwidth does not scale with N, only the capacity does.
func TestMultiOriginStorageScalesWithOrigins(t *testing.T) {
	origins := []float64{0, -2e-3, -4e-3, -6e-3}
	for _, f := range formatPairs {
		cfg := smallConfig()
		cfg.RefFmt, cfg.CorrFmt = f.ref, f.corr
		p := New(cfg)
		a := PaperArch(cfg.RefFmt.Bits())
		bw := p.Stream(a, 960).OffchipBandwidth()
		bits := p.Corr.StorageBits()
		for _, z := range origins {
			dp, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: z}})
			if err != nil {
				t.Fatal(err)
			}
			q := dp.(*Provider)
			bits += q.Ref.StorageBits()
			if got := q.Stream(a, 960).OffchipBandwidth(); got != bw {
				t.Errorf("%s z=%v: per-insonification bandwidth %v, want %v", f.name, z, got, bw)
			}
		}
		if want := p.Corr.StorageBits() + len(origins)*p.Ref.StorageBits(); bits != want {
			t.Errorf("%s: %d origins store %d bits, want Corr + N·Ref = %d", f.name, len(origins), bits, want)
		}
	}
}
