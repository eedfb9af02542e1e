package beamform

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
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

// kernelBenchGrid is one served grid of the accumulate-kernel benchmarks:
// reduced (16×16 elements, 33×33×100) and the bench's small grid (12×12,
// 25×25×80), Hann-apodized, echo window 8512.
type kernelBenchGrid struct {
	name            string
	nx, ny          int
	nth, nphi, ndep int
}

var kernelBenchGrids = []kernelBenchGrid{
	{"reduced16x16_33x33x100", 16, 16, 33, 33, 100},
	{"small12x12_25x25x80", 12, 12, 25, 25, 80},
}

const kernelBenchWin = 8512 // core.ReducedSpec().EchoBufferSamples()

// setup builds the grid's engine, every nappe of TABLEFREE-generated delays
// (resident, as a full cache serves them) and a volume to accumulate into.
func (g kernelBenchGrid) setup() (*Engine, []delay.Block16, *Volume) {
	lambda := 1540.0 / 4e6
	cfg := Config{
		Vol:    scan.NewVolume(geom.Radians(73), geom.Radians(73), 500*lambda, g.nth, g.nphi, g.ndep),
		Arr:    xdcr.NewArray(g.nx, g.ny, lambda/2),
		Conv:   conv,
		Window: xdcr.Hann,
	}
	eng := New(cfg)
	n := g.nth * g.nphi * len(eng.apod)
	gen := delay.AsBlock(tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv}),
		delay.Layout{NTheta: g.nth, NPhi: g.nphi, NX: g.nx, NY: g.ny})
	blocks := make([]delay.Block16, g.ndep)
	scratch := make([]float64, n)
	for id := range blocks {
		blocks[id] = make(delay.Block16, n)
		delay.Fill16(gen, id, blocks[id], scratch)
	}
	return eng, blocks, &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
}

// kernelBenchBody is one kernel body under the benchmark: run accumulates
// nappe id; perVoxel is the samples it fetches per voxel and bytes the
// computed (not measured) bytes it moves per fetched sample.
type kernelBenchBody struct {
	name     string
	perVoxel int
	bytes    float64
	run      func(id int)
}

// bench times whole volumes — one op is every nappe once, one core — and
// reports ms/volume (the figure that compares bodies), Msamples/s,
// cycles/sample at the /proc/cpuinfo clock and the computed B/sample.
func (body kernelBenchBody) bench(b *testing.B, nappes, voxels int) {
	for i := 0; i < b.N; i++ {
		for id := 0; id < nappes; id++ {
			body.run(id)
		}
	}
	perVolume := b.Elapsed().Seconds() / float64(b.N)
	samples := float64(voxels) * float64(body.perVoxel)
	b.ReportMetric(perVolume*1e3, "ms/volume")
	b.ReportMetric(samples/perVolume/1e6, "Msamples/s")
	if mhz := hostMHz(); mhz > 0 {
		b.ReportMetric(perVolume*mhz*1e6/samples, "cycles/sample")
	}
	b.ReportMetric(body.bytes, "B/sample")
}

// BenchmarkAccumulateI16 is the committed source for the fixed-point
// kernel's cycles/sample (ROADMAP item 2): whole volumes against one guarded
// int16 plane of the served window, through the scalar reference and through
// the body this build and host select.
//
// Msamples/s and cycles/sample count the samples a body fetches per voxel:
// the active elements for the reference, the vector range plus the scalar
// tail for the native body (which also fetches the range's zero-weight
// elements). B/sample: the delay, the echo fetch (a dword per gather on the
// native body) and the operand-table entry per sample, plus the voxel's
// float64 store — and the native int32 row's write and read — spread over
// its samples.
func BenchmarkAccumulateI16(b *testing.B) {
	for _, g := range kernelBenchGrids {
		eng, blocks, out := g.setup()
		h := &i16KernelHarness{eng: eng, win: kernelBenchWin, rng: 0x1b16}
		h.plane = make([]int16, len(eng.apod)*(kernelBenchWin+1))
		h.fillPlane(false)
		tab := eng.i16GatherTable(kernelBenchWin)
		row := make([]int32, g.nth*g.nphi)

		nA := len(tab.els)
		fetched := tab.nVec + nA - tab.tail
		bodies := []kernelBenchBody{
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
			b.Run(g.name+"/"+body.name, func(b *testing.B) { body.bench(b, g.ndep, len(out.Data)) })
		}
	}
}

// BenchmarkAccumulateF64 is the float64 golden kernel's row of the same
// table: whole volumes against float64 echo buffers of the served window
// (17.4 MB on the reduced grid), through the scalar reference and through
// the body this build selects. Both bodies fetch exactly the active elements
// per voxel. B/sample: the delay (2), the echo (8) and the operands the body
// re-reads — the reference's index, weight and slice header per sample
// (4+8+24), the native body's 32 B row once per eight voxels — plus the
// voxel's store spread over its samples.
func BenchmarkAccumulateF64(b *testing.B) {
	for _, g := range kernelBenchGrids {
		eng, blocks, out := g.setup()
		samples := make([]float64, len(eng.apod)*kernelBenchWin)
		for i := range samples {
			samples[i] = float64(int16(i * 40503)) // ADC-like words, no pattern a row shares
		}
		bufs := make([]rf.EchoBuffer, len(eng.apod))
		for d := range bufs {
			bufs[d] = rf.EchoBuffer{Samples: samples[d*kernelBenchWin:][:kernelBenchWin:kernelBenchWin]}
		}

		nA := len(eng.activeIdx)
		bodies := []kernelBenchBody{
			{"ref", nA, 2 + 8 + (4 + 8 + 24) + 8/float64(nA), func(id int) {
				eng.accumulateNappe16Ref(blocks[id], bufs, id, out, false)
			}},
			{"native-" + f64KernelBody(), nA, 2 + 8 + 32.0/8 + 8/float64(nA), func(id int) {
				eng.accumulateNappe16(blocks[id], bufs, id, out, false)
			}},
		}
		if f64KernelBody() == "ref" {
			bodies[1].bytes = bodies[0].bytes
		}
		for _, body := range bodies {
			b.Run(g.name+"/"+body.name, func(b *testing.B) { body.bench(b, g.ndep, len(out.Data)) })
		}
	}
}
