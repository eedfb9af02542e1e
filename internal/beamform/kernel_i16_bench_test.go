package beamform

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
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

// setup builds the grid's engine, every nappe of delays from the fixed
// TABLEFREE datapath the server builds (resident, as a full cache serves
// them) and a volume to accumulate into.
func (g kernelBenchGrid) setup() (*Engine, []delay.Block16, *Volume) {
	cfg := g.config()
	eng := New(cfg)
	n := g.nth * g.nphi * len(eng.apod)
	tf := tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv})
	tf.UseFixed = true
	gen := delay.AsBlock(tf, delay.Layout{NTheta: g.nth, NPhi: g.nphi, NX: g.nx, NY: g.ny})
	blocks := make([]delay.Block16, g.ndep)
	for id := range blocks {
		blocks[id] = make(delay.Block16, n)
		gen.FillNappe16(id, blocks[id])
	}
	return eng, blocks, &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
}

// natives converts every nappe's block to the tile-native form a resident
// store holds.
func natives(eng *Engine, blocks []delay.Block16) []*delaycache.Native {
	l := eng.layout()
	nats := make([]*delaycache.Native, len(blocks))
	for id, blk := range blocks {
		nats[id] = delaycache.NewNative(l, l.SnakeTiles(), blk)
	}
	return nats
}

// scratches is one tile-native expansion scratch per GOMAXPROCS worker.
func scratches(eng *Engine) []delay.Block16 {
	l := eng.layout()
	s := make([]delay.Block16, runtime.GOMAXPROCS(0))
	for w := range s {
		s[w] = make(delay.Block16, max(l.BlockLen(), 16*l.VoxelStride()))
	}
	return s
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

// stripeVolumes times b.N whole volumes, GOMAXPROCS goroutines striping
// the nappes as session workers do — worker w runs nappes w, w+procs, … —
// and returns what run handed back per volume.
func stripeVolumes(b *testing.B, ndep int, run func(w, id int) int) float64 {
	procs := runtime.GOMAXPROCS(0)
	var handed atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 0
				for id := w; id < ndep; id += procs {
					n += run(w, id)
				}
				handed.Add(int64(n))
			}()
		}
		wg.Wait()
	}
	return float64(handed.Load()) / float64(b.N)
}

// benchPlane is a guarded int16 plane of the served window for eng: random
// samples, guard slots zero.
func benchPlane(eng *Engine, seed uint64) []int16 {
	rng := newXorshift(seed)
	plane := make([]int16, len(eng.apod)*(kernelBenchWin+1))
	for i := range plane {
		if i%(kernelBenchWin+1) != kernelBenchWin {
			plane[i] = int16(rng.next())
		}
	}
	return plane
}

// BenchmarkAccumulateI16 is the committed source for the fixed-point
// kernel's cycles/sample: whole volumes against one guarded int16 plane of
// the served window, one row per body this host runs — avx512, avx2, ref —
// on both grids. GOMAXPROCS goroutines stripe the nappes as session workers
// do, so -cpu 1,2 reads each body at one and at two cores; cycles/sample is
// per core.
//
// Msamples/s and cycles/sample count the samples a body fetches per voxel:
// the active elements for the reference, the vector range plus the scalar
// tail for avx2 (which also fetches the range's zero-weight elements), and
// both elements of every pair holding an active one for avx512. B/sample:
// the delay, the echo fetch (a dword per gather on avx2; on avx512 at most
// a 64-word window per element shared by a tile's 16 voxels) and the
// operand-table entry per sample, plus the voxel's float64 store — and the
// int32 row's write and read — spread over its samples. fallback_tiles/volume
// counts the tiles the avx512 body handed back to the avx2 one: 0 on the
// served grids' delays. The avx512-native row runs the tile-native body
// over the blocks in the form a resident store holds them
// (accumulateNativeI16), its delay 304 B per 256 instead of 2 B each.
func BenchmarkAccumulateI16(b *testing.B) {
	for _, g := range kernelBenchGrids {
		eng, blocks, out := g.setup()
		nats := natives(eng, blocks)
		plane := benchPlane(eng, 0x1b16)
		tab := eng.i16GatherTable(kernelBenchWin)

		nA := len(tab.els)
		pairs := 0
		for _, m := range tab.grp {
			for k := 0; k < 8; k++ {
				if m&(0x101<<k) != 0 {
					pairs++
				}
			}
		}
		geometry := map[string]struct {
			perVoxel int
			bytes    float64
		}{
			"ref":    {nA, 2 + 2 + 12 + 8/float64(nA)},
			"avx2":   {tab.nVec + nA - tab.tail, 2 + 4 + 8 + (8+8)/float64(tab.nVec+nA-tab.tail)},
			"avx512": {2 * pairs, 2 + 8 + 2 + (8+8)/float64(2*pairs)},
		}
		geometry["avx512-native"] = struct {
			perVoxel int
			bytes    float64
		}{2 * pairs, geometry["avx512"].bytes - 2 + 304.0/256}
		for _, r := range hostRoutes() {
			names := []string{r.name}
			if r.avx512 {
				names = append(names, "avx512-native")
			}
			for _, name := range names {
				b.Run(g.name+"/"+name, func(b *testing.B) {
					defer r.use()()
					procs := runtime.GOMAXPROCS(0)
					rows := make([][]int32, procs)
					for w := range rows {
						rows[w] = make([]int32, g.nth*g.nphi)
					}
					scratch := scratches(eng)
					fallbacks := stripeVolumes(b, g.ndep, func(w, id int) int {
						if name == "avx512-native" {
							return eng.accumulateNativeI16(nats[id], scratch[w], plane, tab, id, out, 1, false, rows[w])
						}
						return eng.accumulateNappe16I16(blocks[id], plane, tab, id, out, 1, false, rows[w])
					})
					geo := geometry[name]
					reportKernel(b, float64(len(out.Data))*float64(geo.perVoxel), geo.bytes, procs)
					if r.avx512 {
						b.ReportMetric(fallbacks, "fallback_tiles/volume")
					}
				})
			}
		}
	}
}

// BenchmarkAccumulateSteerI16 is the committed source of the fused
// TABLESTEER crossover: whole TABLESTEER-18b volumes against one guarded
// int16 plane of the served window, through these routes —
//
//   - resident: every nappe's block filled once up front, as a full cache
//     holds them, then the host's i16 body over it
//   - fill+acc: a cache miss before the fused route, FillNappe16 (steerRow)
//     into the worker's block and the host's i16 body over it
//   - fused-avx512, fused-avx2: the miss now, SteerRows into the worker's
//     operand rows and one fused body — each one this build and host
//     offers, whatever the probes select
//
// GOMAXPROCS goroutines stripe the nappes as session workers do, so -cpu 1,2
// reads each route at one and at two cores sharing the memory system;
// cycles/sample is per core, over the samples the AVX2 gather body fetches
// (the vector range plus the scalar tail), the same count on every row so
// that rows compare as times. B/sample counts the operand bytes each
// fetched sample touches at any cache level: the resident delay (2), or the
// fill's reference and x words and delay store plus the delay load
// (8+2+2), or the fused ry and x words (4+4) — beside the dword gather (4)
// and the ro/wq table (8) the gather body pays — plus the voxel's row and
// store over its samples. fallback_tiles/volume counts the tiles the
// fused-avx512 body handed back: 0 on the served grids.
func BenchmarkAccumulateSteerI16(b *testing.B) {
	for _, g := range kernelBenchGrids {
		cfg := g.config()
		eng := New(cfg)
		p := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: cfg.Conv})
		p.UseFixed = true
		ops := p.SteerOperands()
		sr := &steerRoute{ops: ops, offs: eng.steerTileOffsets(ops)}
		plane := benchPlane(eng, 0x57ee)
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
		type row struct {
			name  string
			bytes float64
			run   func(w *worker, id int) int
			r     route // the probes the row runs under
		}
		host := hostRoutes()[0]
		routes := []row{
			{"resident", 2 + 4 + 8 + voxel, func(w *worker, id int) int {
				eng.accumulateNappe16I16(resident[id], plane, tab, id, out, 1, false, w.row)
				return 0
			}, host},
			{"fill+acc", 8 + 2 + 2 + 4 + 8 + voxel, func(w *worker, id int) int {
				p.FillNappe16(id, w.blk)
				eng.accumulateNappe16I16(w.blk, plane, tab, id, out, 1, false, w.row)
				return 0
			}, host},
		}
		for _, r := range hostRoutes() {
			if r.avx2 {
				routes = append(routes, row{"fused-" + r.name, 4 + 4 + 4 + 8 + voxel, func(w *worker, id int) int {
					p.SteerRows(id, w.ry)
					return eng.accumulateSteerI16(w.ry, sr, plane, tab, id, out, 1, false, w.row)
				}, r})
			}
		}
		for _, rt := range routes {
			b.Run(g.name+"/"+rt.name, func(b *testing.B) {
				defer rt.r.use()()
				procs := runtime.GOMAXPROCS(0)
				workers := make([]*worker, procs)
				for i := range workers {
					workers[i] = &worker{
						blk: make(delay.Block16, l.BlockLen()),
						row: make([]int32, g.nth*g.nphi),
						ry:  make([]int32, (g.nphi+1)*l.VoxelStride()),
					}
				}
				fallbacks := stripeVolumes(b, g.ndep, func(w, id int) int { return rt.run(workers[w], id) })
				reportKernel(b, float64(len(out.Data))*float64(fetched), rt.bytes, procs)
				if rt.name == "fused-avx512" {
					b.ReportMetric(fallbacks, "fallback_tiles/volume")
				}
			})
		}
	}
}

// BenchmarkAccumulateF64 is the float64 golden kernel's row of the same
// table: whole volumes against float64 echo buffers of the served window
// (17.4 MB on the reduced grid), one row per body this host runs —
// avx512-native, sse2, ref — on both grids. GOMAXPROCS goroutines stripe
// the nappes as session workers do, so -cpu 1,2 reads each body at one and
// at two cores; cycles/sample is per core. Every body fetches exactly the
// active elements per voxel. B/sample: the delay — 2, or on avx512-native
// the tile-native record's 304 B per 256 — the echo — 8 per sample, or on
// avx512-native at most a 16-sample window per element shared by the
// tile's 16 voxels — and the operands the body re-reads: the reference's
// index, weight and slice header per sample (4+8+24), sse2's 32 B row once
// per eight voxels, avx512-native's once per sixteen; plus the voxel's
// store spread over its samples. The avx512-native row runs the blocks in
// the form a resident store holds them (accumulateNativeF64); its
// gathered/volume counts the element-halves that took the gather instead
// of a window: 0 on the served grids' delays. The sse2 row is every filled
// nappe's body on every amd64 host.
func BenchmarkAccumulateF64(b *testing.B) {
	for _, g := range kernelBenchGrids {
		eng, blocks, out := g.setup()
		nats := natives(eng, blocks)
		var scratch []delay.Block16
		samples := make([]float64, len(eng.apod)*kernelBenchWin)
		for i := range samples {
			samples[i] = float64(int16(i * 40503)) // ADC-like words, no pattern a row shares
		}
		bufs := make([]rf.EchoBuffer, len(eng.apod))
		for d := range bufs {
			bufs[d] = rf.EchoBuffer{Samples: samples[d*kernelBenchWin:][:kernelBenchWin:kernelBenchWin]}
		}

		nA := len(eng.activeIdx)
		voxel := 8 / float64(nA)
		bytes := map[string]float64{
			"ref":           2 + 8 + (4 + 8 + 24) + voxel,
			"sse2":          2 + 8 + 32.0/8 + voxel,
			"avx512-native": 304.0/256 + 8 + 32.0/16 + voxel,
		}
		ran := map[string]bool{}
		for _, r := range append(hostRoutes(), route{name: "ref", f64: "ref"}) {
			name := r.f64
			if ran[name] {
				continue
			}
			ran[name] = true
			run := func(_, id int) int {
				eng.accumulateNappe16(blocks[id], bufs, id, out, false)
				return 0
			}
			switch name {
			case "avx512-native":
				run = func(w, id int) int { return eng.accumulateNativeF64(nats[id], scratch[w], bufs, id, out, false) }
			case "ref":
				run = func(_, id int) int {
					eng.accumulateNappe16Ref(blocks[id], bufs, id, out, false)
					return 0
				}
			}
			b.Run(g.name+"/"+name, func(b *testing.B) {
				defer r.use()()
				scratch = scratches(eng)
				gathered := stripeVolumes(b, g.ndep, run)
				reportKernel(b, float64(len(out.Data))*float64(nA), bytes[name], runtime.GOMAXPROCS(0))
				if name == "avx512-native" {
					b.ReportMetric(gathered, "gathered/volume")
				}
			})
		}
	}
}
