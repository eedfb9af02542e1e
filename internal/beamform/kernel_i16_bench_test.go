package beamform

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
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/tablesteer"
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

// config is the grid's engine configuration.
func (g kernelBenchGrid) config() Config {
	lambda := 1540.0 / 4e6
	return Config{
		Vol:    scan.NewVolume(geom.Radians(73), geom.Radians(73), 500*lambda, g.nth, g.nphi, g.ndep),
		Arr:    xdcr.NewArray(g.nx, g.ny, lambda/2),
		Conv:   conv,
		Window: xdcr.Hann,
	}
}

// setup builds the grid's engine, every nappe of TABLEFREE-generated delays
// (resident, as a full cache serves them) and a volume to accumulate into.
func (g kernelBenchGrid) setup() (*Engine, []delay.Block16, *Volume) {
	cfg := g.config()
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
	reportKernel(b, float64(voxels)*float64(body.perVoxel), body.bytes, 1)
}

// reportKernel states a whole-volume benchmark's rates: ms/volume (wall),
// Msamples/s, cycles/sample per core at the /proc/cpuinfo clock with procs
// cores busy, and the computed B/sample.
func reportKernel(b *testing.B, samples, bytes float64, procs int) {
	perVolume := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(perVolume*1e3, "ms/volume")
	b.ReportMetric(samples/perVolume/1e6, "Msamples/s")
	if mhz := hostMHz(); mhz > 0 {
		b.ReportMetric(perVolume*float64(procs)*mhz*1e6/samples, "cycles/sample")
	}
	b.ReportMetric(bytes, "B/sample")
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

// BenchmarkAccumulateSteerI16 is the committed source of the fused
// TABLESTEER crossover: whole TABLESTEER-18b volumes against one guarded
// int16 plane of the served window, through three routes —
//
//   - resident: every nappe's block filled once up front, as a full cache
//     holds them, then the i16 gather body over it
//   - fill+acc: a cache miss before the fused route, FillNappe16 (steerRow)
//     into the worker's block and the i16 gather body over it
//   - fused: the miss now, SteerRows into the worker's operand rows and the
//     fused body (skipped where the build or host has none)
//
// GOMAXPROCS goroutines stripe the nappes as session workers do, so -cpu 1,2
// reads each route at one and at two cores sharing the memory system;
// cycles/sample is per core. B/sample counts the operand bytes each fetched
// sample touches at any cache level: the resident delay (2), or the fill's
// reference and x words and delay store plus the delay load (8+2+2), or the
// fused ry and x words (4+4) — beside the dword gather (4) and the ro/wq
// table (8) every route pays — plus the voxel's row and store over its
// samples.
func BenchmarkAccumulateSteerI16(b *testing.B) {
	for _, g := range kernelBenchGrids {
		cfg := g.config()
		eng := New(cfg)
		p := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: cfg.Conv})
		p.UseFixed = true
		ops := p.SteerOperands()
		h := &i16KernelHarness{eng: eng, win: kernelBenchWin, rng: 0x57ee}
		h.plane = make([]int16, len(eng.apod)*(kernelBenchWin+1))
		h.fillPlane(false)
		tab := eng.i16GatherTable(kernelBenchWin)
		out := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
		l := p.Layout()
		resident := make([]delay.Block16, g.ndep)
		for id := range resident {
			resident[id] = make(delay.Block16, l.BlockLen())
			p.FillNappe16(id, resident[id])
		}

		type worker struct {
			blk     delay.Block16
			row, ry []int32
		}
		fetched := tab.nVec + len(tab.els) - tab.tail
		voxel := (8 + 8) / float64(fetched)
		routes := []struct {
			name  string
			bytes float64
			run   func(w *worker, id int)
		}{
			{"resident", 2 + 4 + 8 + voxel, func(w *worker, id int) {
				eng.accumulateNappe16I16(resident[id], h.plane, tab, id, out, 1, false, w.row)
			}},
			{"fill+acc", 8 + 2 + 2 + 4 + 8 + voxel, func(w *worker, id int) {
				p.FillNappe16(id, w.blk)
				eng.accumulateNappe16I16(w.blk, h.plane, tab, id, out, 1, false, w.row)
			}},
			{"fused", 4 + 4 + 4 + 8 + voxel, func(w *worker, id int) {
				p.SteerRows(id, w.ry)
				eng.accumulateSteerI16(w.ry, ops, h.plane, tab, id, out, 1, false, w.row)
			}},
		}
		for _, route := range routes {
			b.Run(g.name+"/"+route.name, func(b *testing.B) {
				if route.name == "fused" && !fusedSteer() {
					b.Skip("no fused steer body on this build or host")
				}
				procs := runtime.GOMAXPROCS(0)
				workers := make([]*worker, procs)
				for i := range workers {
					workers[i] = &worker{
						blk: make(delay.Block16, l.BlockLen()),
						row: make([]int32, g.nth*g.nphi),
						ry:  make([]int32, (g.nphi+1)*l.VoxelStride()),
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for id := w; id < g.ndep; id += procs {
								route.run(workers[w], id)
							}
						}()
					}
					wg.Wait()
				}
				reportKernel(b, float64(len(out.Data))*float64(fetched), route.bytes, procs)
			})
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
