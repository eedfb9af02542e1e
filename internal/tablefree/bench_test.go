package tablefree

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// The two grids the served benchmark runs: core.ReducedSpec (16×16
// elements, 33×33×100, 278 784 delays per nappe) and bench's small grid
// (12×12, 25×25×80, 90 000 per nappe) — in this package's terms, since core
// imports tablefree.
var benchGrids = []struct {
	name string
	cfg  Config
}{
	{"reduced16x16_33x33x100", gridConfig(16, 33, 100)},
	{"small12x12_25x25x80", gridConfig(12, 25, 80)},
}

func gridConfig(elems, lines, depths int) Config {
	return Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, lines, lines, depths),
		Arr:  xdcr.NewArray(elems, elems, 0.385e-3/2),
		Conv: conv,
	}
}

func reducedConfig() Config { return benchGrids[0].cfg }

// unitLawMdelays is one §IV-B unit: a delay per cycle at the paper's 167 MHz.
const unitLawMdelays = 167.0

// hostMHz reads the clock /proc/cpuinfo reports for the first CPU — on the
// virtualized hosts this runs on, the invariant TSC rate — so a row can
// state cycles beside nanoseconds. 0 when unavailable.
func hostMHz() float64 {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "cpu MHz" {
			mhz, _ := strconv.ParseFloat(strings.TrimSpace(val), 64)
			return mhz
		}
	}
	return 0
}

// fillFunc adapts a fill function to the rows below.
type fillFunc func(id int, dst delay.Block16)

// BenchmarkFillNappe16 reports the per-core quantized fill rate of the
// generators a served miss can reach, on both served grids: the fused
// integer kernel through the body this host runs (fixed), the same kernel
// with every slot through fixedRow (fixed-ref: what a host without the lane
// body gets), the generic sweep (ideal-pwl) and the √-per-delay reference
// (exact). One iteration is one nappe; depths rotate so segments move.
// x_unit_law is Mdelays/s over the paper's 167 MHz unit — ROADMAP's "≥ 3
// per core" reads the fixed rows' column.
func BenchmarkFillNappe16(b *testing.B) {
	mhz := hostMHz()
	for _, g := range benchGrids {
		fixed, ideal := fixedProvider(g.cfg), New(g.cfg)
		rows := []struct {
			name string
			fill fillFunc
		}{
			{"fixed", fixed.FillNappe16},
			{"fixed-ref", func(id int, dst delay.Block16) { refFill16(fixed, id, dst) }},
			{"ideal-pwl", ideal.FillNappe16},
			{"exact", exactFor(g.cfg).FillNappe16},
		}
		n := fixed.Layout().BlockLen()
		dst := make(delay.Block16, n)
		for _, r := range rows {
			b.Run(g.name+"/"+r.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.fill(i%g.cfg.Vol.Depth.N, dst)
				}
				perSec := float64(n) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(perSec/1e6, "Mdelays/s")
				b.ReportMetric(perSec/1e6/unitLawMdelays, "x_unit_law")
				if mhz > 0 {
					b.ReportMetric(mhz*1e6/perSec, "cycles/delay")
				}
			})
		}
	}
}
