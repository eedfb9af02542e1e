package tablesteer

import (
	"fmt"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// reducedConfig is core.ReducedSpec in this package's terms (core imports
// tablesteer): the 16×16 aperture and 33×33×100 grid the served benchmark
// runs, 278 784 delays per nappe, with core's directivity cone.
func reducedConfig() Config {
	return Config{
		Vol:         scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 33, 33, 100),
		Arr:         xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv:        conv,
		Directivity: DefaultDirectivity(),
	}
}

// BenchmarkFillNappe16 reports the per-core quantized fill rate of the
// TABLESTEER datapath a served miss reaches, at both shipped widths. One
// iteration is one nappe.
// x_lane_law reads the rate against the paper's own law: one Fig. 4 output
// lane delivers a delay per cycle at PaperArch's 200 MHz, so 1.0 is one
// hardware lane's worth from one core. Against memory the kernel moves 2 B
// stored plus 8 B of L1-resident operand reads (reference and x word) per
// delay; the y word and the unfold amortize over a row and a nappe.
func BenchmarkFillNappe16(b *testing.B) {
	laneMdelays := PaperArch(18).ClockHz / 1e6
	for _, bits := range []int{18, 14} {
		cfg := reducedConfig()
		cfg.RefFmt, cfg.CorrFmt = Bits18Config()
		if bits == 14 {
			cfg.RefFmt, cfg.CorrFmt = Bits14Config()
		}
		p := New(cfg)
		p.UseFixed = true
		b.Run(fmt.Sprintf("fixed-%db", bits), func(b *testing.B) {
			n := p.Layout().BlockLen()
			dst := make(delay.Block16, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.FillNappe16(i%cfg.Vol.Depth.N, dst)
			}
			rate := float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e6
			b.ReportMetric(rate, "Mdelays/s")
			b.ReportMetric(rate/laneMdelays, "x_lane_law")
		})
	}
}
