// Block/scalar equivalence at the facade level: for every delay
// architecture of the paper, the nappe-granular FillNappe16 datapath must
// hold exactly Index16 of the scalar DelaySamples reference — the contract
// that makes the streaming beamformer's volumes bit-identical to the scalar
// one (see DESIGN.md §5).
package ultrabeam_test

import (
	"slices"
	"testing"

	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
)

// TestFillNappeBitIdenticalAllProviders holds every architecture's native
// fill, on odd θ/φ dims and even element axes, to delay.ScalarAdapter's
// walk of Index16(DelaySamples) in layout order, at every depth.
func TestFillNappeBitIdenticalAllProviders(t *testing.T) {
	s := core.ReducedSpec()
	s.ElemX, s.ElemY = 10, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 7, 64
	s.DepthLambda = 80 // 30.8 mm imaging depth → 0.5 mm depth steps
	tfFixed, ts18, ts14 := s.NewTableFree(), s.NewTableSteer(18), s.NewTableSteer(14)
	tfFixed.UseFixed, ts18.UseFixed, ts14.UseFixed = true, true, true
	for _, tc := range []struct {
		name string
		bp   delay.BlockProvider
	}{
		{"exact", s.NewExact()},
		{"tablefree-ideal", s.NewTableFree()},
		{"tablefree-fixed", tfFixed},
		{"tablesteer-float", s.NewTableSteer(18)},
		{"tablesteer-18b", ts18},
		{"tablesteer-14b", ts14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.bp.Layout()
			got, want := make(delay.Block16, l.BlockLen()), make(delay.Block16, l.BlockLen())
			for id := 0; id < s.FocalDepth; id++ {
				tc.bp.FillNappe16(id, got)
				(&delay.ScalarAdapter{P: tc.bp, L: l}).FillNappe16(id, want)
				if !slices.Equal(got, want) {
					t.Fatalf("nappe %d: the block differs from Index16 of the scalar law", id)
				}
			}
		})
	}
}
