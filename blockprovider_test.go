// Block/scalar equivalence at the facade level: for every delay
// architecture of the paper, the nappe-granular FillNappe16 datapath must
// hold exactly Index16 of the scalar DelaySamples reference — the contract
// that makes the streaming beamformer's volumes bit-identical to the scalar
// one (see DESIGN.md §5).
package ultrabeam_test

import (
	"testing"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// blockSpec is a small spec exercising odd θ/φ dims and even element axes,
// with depth sampling fine enough that the point phantom stays visible.
func blockSpec() core.SystemSpec {
	s := core.ReducedSpec()
	s.ElemX, s.ElemY = 10, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 7, 64
	s.DepthLambda = 80 // 30.8 mm imaging depth → 0.5 mm depth steps
	return s
}

func TestFillNappeBitIdenticalAllProviders(t *testing.T) {
	s := blockSpec()
	cases := []struct {
		name string
		prov delay.Provider
	}{
		{"exact", s.NewExact()},
		{"tablefree-ideal", s.NewTableFree()},
		{"tablefree-fixed", func() delay.Provider {
			p := s.NewTableFree()
			p.UseFixed = true
			return p
		}()},
		{"tablesteer-float", s.NewTableSteer(18)},
		{"tablesteer-18b", func() delay.Provider {
			p := s.NewTableSteer(18)
			p.UseFixed = true
			return p
		}()},
		{"tablesteer-14b", func() delay.Provider {
			p := s.NewTableSteer(14)
			p.UseFixed = true
			return p
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bp, ok := tc.prov.(delay.BlockProvider)
			if !ok {
				t.Fatalf("%T must implement delay.BlockProvider", tc.prov)
			}
			l := bp.Layout()
			dst := make(delay.Block16, l.BlockLen())
			for id := 0; id < s.FocalDepth; id++ {
				bp.FillNappe16(id, dst)
				for it := 0; it < l.NTheta; it++ {
					for ip := 0; ip < l.NPhi; ip++ {
						for ej := 0; ej < l.NY; ej++ {
							for ei := 0; ei < l.NX; ei++ {
								want := delay.Index16(tc.prov.DelaySamples(it, ip, id, ei, ej))
								got := dst[l.Index(it, ip, ei, ej)]
								if got != want {
									t.Fatalf("id=%d (%d,%d,%d,%d): block %d != Index16(scalar) %d",
										id, it, ip, ei, ej, got, want)
								}
							}
						}
					}
				}
			}
		})
	}
}

func TestBeamformBlockPathReproducesScalarPath(t *testing.T) {
	s := blockSpec()
	bufs, err := rf.Synthesize(rf.Config{
		Arr: s.Array(), Conv: s.Converter(), Pulse: rf.NewPulse(s.Fc, s.B),
		BufSamples: s.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	eng := s.NewBeamformer(xdcr.Hann, scan.NappeOrder)
	for _, prov := range []delay.Provider{s.NewExact(), s.NewTableFree(), s.NewTableSteer(18)} {
		scalar, err := eng.BeamformScalar(prov, bufs)
		if err != nil {
			t.Fatal(err)
		}
		block, err := eng.Beamform(prov, bufs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scalar.Data {
			if scalar.Data[i] != block.Data[i] {
				t.Fatalf("%s: block path diverges from scalar at %d", prov.Name(), i)
			}
		}
		if sim, err := beamform.Similarity(scalar, block); err != nil || sim != 1 {
			t.Fatalf("%s: similarity = %v, %v", prov.Name(), sim, err)
		}
	}
}
