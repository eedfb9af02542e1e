package tablefree

import (
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// TestWithTransmitMatchesRebuiltProvider: the derived unit must equal a
// provider constructed directly for the transmit's origin — same PWL
// sizing, same fixed/float selection — and keep the block/scalar contract.
func TestWithTransmitMatchesRebuiltProvider(t *testing.T) {
	cfg := Config{
		Vol:  scan.NewVolume(geom.Radians(40), geom.Radians(20), 0.05, 5, 3, 8),
		Arr:  xdcr.NewArray(4, 4, 0.2e-3),
		Conv: delay.Converter{C: 1540, Fs: 32e6},
	}
	for _, fixed := range []bool{false, true} {
		p := New(cfg)
		p.UseFixed = fixed
		tx := delay.Transmit{Origin: geom.Vec3{X: 1e-3, Z: -4e-3}}
		q, err := p.WithTransmit(tx)
		if err != nil {
			t.Fatal(err)
		}
		dcfg := cfg
		dcfg.Origin = tx.Origin
		want := New(dcfg)
		want.UseFixed = fixed
		qp, ok := q.(*Provider)
		if !ok || qp.UseFixed != fixed {
			t.Fatalf("derived provider lost the datapath selection (fixed=%v)", fixed)
		}
		blk := make(delay.Block16, qp.Layout().BlockLen())
		for id := 0; id < cfg.Vol.Depth.N; id += 3 {
			qp.FillNappe16(id, blk)
			k := 0
			for it := 0; it < cfg.Vol.Theta.N; it++ {
				for ip := 0; ip < cfg.Vol.Phi.N; ip++ {
					for ej := 0; ej < cfg.Arr.NY; ej++ {
						for ei := 0; ei < cfg.Arr.NX; ei++ {
							w := want.DelaySamples(it, ip, id, ei, ej)
							if got := qp.DelaySamples(it, ip, id, ei, ej); got != w {
								t.Fatalf("fixed=%v scalar differs at (%d,%d,%d,%d,%d)", fixed, it, ip, id, ei, ej)
							}
							if blk[k] != delay.Index16(w) {
								t.Fatalf("fixed=%v block fill differs at %d", fixed, k)
							}
							k++
						}
					}
				}
			}
		}
	}
}
