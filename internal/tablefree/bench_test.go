package tablefree

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
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
// through the four-lane body with the AVX-512 probe cleared (fixed-avx2:
// what an AVX2-only host gets; on a host that has AVX-512 the row is the
// per-core baseline of the eight-lane body, so the ratio is read inside one
// process), with every slot through fixedRow (fixed-ref: what a host
// without a lane body gets) and the √-per-delay reference (exact). One
// iteration is one nappe; depths rotate so segments move. GOMAXPROCS
// goroutines stripe the nappes as session workers do, each into its own
// block, so -cpu 1,2 reads each row at one and at two cores; Mdelays/s is
// their sum, x_unit_law and cycles/delay are per core. x_unit_law is
// Mdelays/s over the paper's 167 MHz unit — ROADMAP's "≥ 3 per core" reads
// the fixed rows' column.
func BenchmarkFillNappe16(b *testing.B) {
	mhz := hostMHz()
	for _, g := range benchGrids {
		fixed := fixedProvider(g.cfg)
		type row struct {
			name string
			r    route // the probes the row runs under
			fill fillFunc
		}
		host := hostRoutes()[0]
		rows := []row{{"fixed", host, fixed.FillNappe16}}
		if host.avx512 {
			rows = append(rows, row{"fixed-avx2", hostRoutes()[1], fixed.FillNappe16})
		}
		rows = append(rows,
			row{"fixed-ref", host, func(id int, dst delay.Block16) { refFill16(fixed, id, dst) }},
			row{"exact", host, exactFor(g.cfg).FillNappe16},
		)
		n := fixed.Layout().BlockLen()
		for _, r := range rows {
			b.Run(g.name+"/"+r.name, func(b *testing.B) {
				defer r.r.use()()
				procs := runtime.GOMAXPROCS(0) // -cpu sets it for each run of this function
				dsts := make([]delay.Block16, procs)
				for w := range dsts {
					dsts[w] = make(delay.Block16, n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := range procs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := w; i < b.N; i += procs {
							r.fill(i%g.cfg.Vol.Depth.N, dsts[w])
						}
					}()
				}
				wg.Wait()
				perSec := float64(n) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(perSec/1e6, "Mdelays/s")
				b.ReportMetric(perSec/1e6/unitLawMdelays/float64(procs), "x_unit_law")
				if mhz > 0 {
					b.ReportMetric(mhz*1e6*float64(procs)/perSec, "cycles/delay")
				}
			})
		}
	}
}
