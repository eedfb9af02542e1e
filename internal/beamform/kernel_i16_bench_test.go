package beamform

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/xdcr"
)

// hostMHz reads the clock /proc/cpuinfo reports for the first CPU — on the
// virtualized hosts this runs on, the invariant TSC rate — so the
// benchmark can state cycles beside nanoseconds. 0 when unavailable.
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

// BenchmarkAccumulateI16 is the committed source for the fixed-point
// kernel's cycles/sample (ROADMAP item 2): one op is one whole volume —
// every nappe of TABLEFREE-generated delays, resident, against one guarded
// int16 plane of the served window — on one core, through the scalar
// reference and through the body this build and host select. The grids are
// the served ones: reduced (16×16 elements, 33×33×100) and the bench's
// small grid (12×12, 25×25×80), Hann-apodized.
//
// Msamples/s and cycles/sample count the samples a body fetches per voxel:
// the active elements for the reference, the vector range plus the scalar
// tail for the native body (which also fetches the range's zero-weight
// elements). B/sample is computed, not measured: the delay, the echo fetch
// (a dword per gather on the native body) and the operand-table entry per
// sample, plus the voxel's float64 store — and the native int32 row's
// write and read — spread over its samples. ms/volume compares the bodies.
func BenchmarkAccumulateI16(b *testing.B) {
	const win = 8512 // core.ReducedSpec().EchoBufferSamples()
	lambda := 1540.0 / 4e6
	grids := []struct {
		name            string
		nx, ny          int
		nth, nphi, ndep int
	}{
		{"reduced16x16_33x33x100", 16, 16, 33, 33, 100},
		{"small12x12_25x25x80", 12, 12, 25, 25, 80},
	}
	mhz := hostMHz()
	for _, g := range grids {
		cfg := Config{
			Vol:    scan.NewVolume(geom.Radians(73), geom.Radians(73), 500*lambda, g.nth, g.nphi, g.ndep),
			Arr:    xdcr.NewArray(g.nx, g.ny, lambda/2),
			Conv:   conv,
			Window: xdcr.Hann,
		}
		eng := New(cfg)
		h := &i16KernelHarness{eng: eng, win: win, rng: 0x1b16}
		nE := len(eng.apod)
		nVox := g.nth * g.nphi
		h.plane = make([]int16, nE*(win+1))
		h.fillPlane(false)
		tab := eng.i16GatherTable(win)
		gen := delay.AsBlock(tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv}),
			delay.Layout{NTheta: g.nth, NPhi: g.nphi, NX: g.nx, NY: g.ny})
		blocks := make([]delay.Block16, g.ndep)
		scratch := make([]float64, nVox*nE)
		for id := range blocks {
			blocks[id] = make(delay.Block16, nVox*nE)
			delay.Fill16(gen, id, blocks[id], scratch)
		}
		out := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
		row := make([]int32, nVox)

		nA := len(tab.els)
		fetched := tab.nVec + nA - tab.tail
		bodies := []struct {
			name     string
			perVoxel int     // samples fetched per voxel
			bytes    float64 // computed bytes per fetched sample
			run      func(id int)
		}{
			{"ref", nA, 2 + 2 + 12 + 8/float64(nA), func(id int) {
				eng.accumulateNappe16I16Ref(blocks[id], h.plane, tab, id, out, 1, false)
			}},
			{"native-" + i16KernelBody(), fetched, 2 + 4 + 8 + (8+8)/float64(fetched), func(id int) {
				eng.accumulateNappe16I16(blocks[id], h.plane, tab, id, out, 1, false, row)
			}},
		}
		if i16KernelBody() == "ref" {
			bodies[1].perVoxel, bodies[1].bytes = bodies[0].perVoxel, bodies[0].bytes
		}
		for _, body := range bodies {
			b.Run(g.name+"/"+body.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for id := range blocks {
						body.run(id)
					}
				}
				perVolume := b.Elapsed().Seconds() / float64(b.N)
				samples := float64(cfg.Vol.Points()) * float64(body.perVoxel)
				b.ReportMetric(perVolume*1e3, "ms/volume")
				b.ReportMetric(samples/perVolume/1e6, "Msamples/s")
				if mhz > 0 {
					b.ReportMetric(perVolume*mhz*1e6/samples, "cycles/sample")
				}
				b.ReportMetric(body.bytes, "B/sample")
			})
		}
	}
}
