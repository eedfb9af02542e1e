package tablefree

import (
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// reducedConfig is core.ReducedSpec in this package's terms (core imports
// tablefree): the 16×16 aperture and 33×33×100 grid the served benchmark
// runs, 278 784 delays per nappe.
func reducedConfig() Config {
	return Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 33, 33, 100),
		Arr:  xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv: conv,
	}
}

// BenchmarkFillNappe16 reports the per-core quantized fill rate of the
// three generators a served miss can reach: the fused integer kernel
// (fixed), the generic sweep (ideal-pwl) and the √-per-delay reference
// (exact). One iteration is one nappe; depths rotate so segments move.
func BenchmarkFillNappe16(b *testing.B) {
	cfg := reducedConfig()
	fixed, ideal := New(cfg), New(cfg)
	fixed.UseFixed = true
	rows := []struct {
		name string
		bp   delay.BlockProvider16
	}{
		{"fixed", fixed},
		{"ideal-pwl", ideal},
		{"exact", exactFor(cfg)},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			n := r.bp.Layout().BlockLen()
			dst := make(delay.Block16, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.bp.FillNappe16(i%cfg.Vol.Depth.N, dst)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mdelays/s")
		})
	}
}
