// Property tests for the fused TABLESTEER accumulate. Its golden twin is
// tablesteer's steerRow (FillNappe16 on the proven formats) followed by
// accumulateNappe16I16Ref, and the fused body must equal that composition
// bit for bit — not PSNR-close — over randomized geometries, at the index
// extremes the unsigned clamp reasons about, and through whole sessions
// (plane- and buffer-fed batches, single and compound, cached and not).
// The kernel-level tests skip where the build or host has no fused body;
// the session-level ones run everywhere and there pin the unfused route.
// The twin families run once per fused body the host offers
// (eachSteerBody): on an AVX-512 host the tile body, then the AVX2 gather
// body with the AVX-512 probe cleared.
package beamform

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablesteer"
	"ultrabeam/internal/xdcr"
)

// TestSteerKernelBody logs which body a fused-eligible nappe runs on this
// build and host (CI greps the line). The fused bodies ride the i16
// kernel's probes: the tile body runs exactly where the i16 body is the
// AVX-512 tile body, the gather body exactly where it is the AVX2 one.
func TestSteerKernelBody(t *testing.T) {
	body := steerKernelBody()
	if body != "avx512" && body != "avx2" && body != "ref" {
		t.Fatalf("unknown fused steer body %q", body)
	}
	if body != i16KernelBody() {
		t.Fatalf("fused steer body %q beside i16 body %q: each fused body must run exactly where its i16 body does", body, i16KernelBody())
	}
	t.Logf("fused steer body: %s", body)
}

// steerFormats are the (reference, correction) pairs tablesteer proves
// narrow — the only ones that offer fused operands.
var steerFormats = []struct {
	name      string
	ref, corr fixed.Format
}{
	{"18b", fixed.U13p5, fixed.S13p4},
	{"14b", fixed.U13p1, fixed.Format{IntBits: 9, FracBits: 4, Signed: true}},
	{"corr-finer", fixed.U13p1, fixed.S13p4},
}

// steerProvider builds the fixed-datapath TABLESTEER generator of cfg's
// volume and aperture.
func steerProvider(cfg Config, ref, corr fixed.Format) *tablesteer.Provider {
	p := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: cfg.Conv, RefFmt: ref, CorrFmt: corr})
	p.UseFixed = true
	return p
}

// fusedRun drives the fused body and its twin over every nappe of vol,
// store then add, and fails on the first voxel that differs. fill writes the
// twin's block of nappe id; rows writes the fused body's ry.
func (h *i16KernelHarness) fusedRun(t *testing.T, name string, ops *delay.SteerOperands, fill func(id int, blk delay.Block16), rows func(id int, ry []int32), scale float64) {
	t.Helper()
	vol := h.eng.Cfg.Vol
	fused := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
	twin := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
	ry := make([]int32, (vol.Phi.N+1)*len(h.eng.apod))
	route := &steerRoute{ops: ops, offs: h.eng.steerTileOffsets(ops)}
	for _, add := range []bool{false, true} {
		for id := 0; id < vol.Depth.N; id++ {
			fill(id, h.blk)
			h.eng.accumulateNappe16I16Ref(h.blk, h.plane, h.tab, id, twin, scale, add)
			rows(id, ry)
			h.eng.accumulateSteerI16(ry, route, h.plane, h.tab, id, fused, scale, add, h.row)
		}
		for i := range twin.Data {
			if fused.Data[i] != twin.Data[i] {
				t.Fatalf("%s nE=%d win=%d sh=%d (add=%t): fused %v != fill+ref %v at voxel %d",
					name, len(h.eng.apod), h.win, h.eng.preShift, add, fused.Data[i], twin.Data[i], i)
			}
		}
	}
}

// TestFusedSteerMatchesFillThenAccumulate is the twin property over real
// generators: randomized volumes and apertures (NX ∈ {1, 3, 8, 12, 16, 17},
// 1×N and N×1, odd and even φ axes so the fold maps two φ rows onto one x
// row or leaves a middle row alone), every proven format pair, the provider
// and an off-origin derived transmit, windows that cut through the delay
// range (so window-edge indices clamp into the guard slot) and the largest
// window, random / dirty-guard / ±32767-pinned planes.
func TestFusedSteerMatchesFillThenAccumulate(t *testing.T) {
	eachSteerBody(t, func(t *testing.T) {
		if !fusedSteer() {
			t.Skip("no fused steer body on this build or host: fill-then-accumulate is the only route")
		}
		rng := rand.New(rand.NewSource(25))
		apertures := [][2]int{{1, 1}, {3, 3}, {8, 1}, {1, 8}, {12, 12}, {16, 16}, {17, 2}, {1, 17}, {17, 1}, {12, 5}}
		offsets := []float64{-4e-3, 3e-3, -0.4e-3, 11e-3}
		clamped, inWindow := 0, 0
		for trial, ap := range apertures {
			f := steerFormats[trial%len(steerFormats)]
			cfg := Config{
				Vol: scan.NewVolume(geom.Radians(20+60*rng.Float64()), geom.Radians(10+70*rng.Float64()),
					0.01+0.1*rng.Float64(), 1+rng.Intn(5), 2+trial%2+2*rng.Intn(2), 1+rng.Intn(3)),
				Arr:    xdcr.NewArray(ap[0], ap[1], (0.1+0.4*rng.Float64())*1e-3),
				Conv:   delay.Converter{C: 1540, Fs: []float64{20e6, 32e6, 50e6}[trial%3]},
				Window: []xdcr.Window{xdcr.Rect, xdcr.Hann}[trial%2],
			}
			base := steerProvider(cfg, f.ref, f.corr)
			derived, err := base.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: offsets[trial%len(offsets)]}})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*tablesteer.Provider{base, derived.(*tablesteer.Provider)} {
				ops := p.SteerOperands()
				if ops == nil {
					t.Fatalf("trial %d %s: proven format offers no fused operands", trial, f.name)
				}
				// The window cuts the nappe's own index range in half.
				hi := int16(0)
				blk := make(delay.Block16, p.Layout().BlockLen())
				for id := 0; id < cfg.Vol.Depth.N; id++ {
					p.FillNappe16(id, blk)
					for _, v := range blk {
						hi = max(hi, v)
					}
				}
				for _, win := range []int{max(int(hi)/2, 1), delay.MaxEchoWindow} {
					h := newI16HarnessFor(t, cfg, win)
					name := fmt.Sprintf("trial %d %s %d×%d φ=%d z=%v", trial, f.name, ap[0], ap[1], cfg.Vol.Phi.N, p.Cfg.OriginZ)
					h.fillPlane(false)
					h.fusedRun(t, name+" random", ops, p.FillNappe16, p.SteerRows, 1.0/32767)
					h.fillPlane(true)
					h.fusedRun(t, name+" dirty-guards", ops, p.FillNappe16, p.SteerRows, 1.0/32767)
					h.pinPlane()
					h.fusedRun(t, name+" pinned", ops, p.FillNappe16, p.SteerRows, 1.0)
					for _, v := range h.blk {
						if int(v) >= win || v < 0 {
							clamped++
						} else {
							inWindow++
						}
					}
				}
			}
		}
		if clamped == 0 || inWindow == 0 {
			t.Fatalf("%d clamped and %d in-window indices: the windows did not cut the delay range", clamped, inWindow)
		}
	})
}

// TestFusedSteerIndexExtremes drives the rounding and the unsigned clamp
// where the real generators never go: synthetic operands whose indices land
// on both int16 rails, on −1 and 0, and on win−1, win and win+1, with the
// rounding bias at several binary points, every i16Apertures shape (empty
// vector range, tail only, 8- and 16-wide loops) and the smallest, a served
// and the largest window. The twin's block is steerRow's formula applied to
// the same operands.
func TestFusedSteerIndexExtremes(t *testing.T) {
	eachSteerBody(t, func(t *testing.T) {
		if !fusedSteer() {
			t.Skip("no fused steer body on this build or host: fill-then-accumulate is the only route")
		}
		for _, ap := range i16Apertures {
			for _, win := range []int{1, 8512, delay.MaxEchoWindow} {
				for _, frac := range []uint32{1, 5, 9, 16} {
					cfg := Config{
						Vol:    scan.NewVolume(geom.Radians(30), geom.Radians(8), 0.02, 3, 3, 2),
						Arr:    xdcr.NewArray(ap.nx, ap.ny, 0.385e-3/2),
						Conv:   conv,
						Window: xdcr.Rect,
					}
					h := newI16HarnessFor(t, cfg, win)
					nE, nTh, nPh := len(h.eng.apod), cfg.Vol.Theta.N, cfg.Vol.Phi.N
					pf := (nPh + 1) / 2
					ops := &delay.SteerOperands{Frac: frac, Half: 1 << (frac - 1),
						XT: make([]int32, nTh*pf*nE), XOff: make([]int32, nTh*nPh)}
					for it := 0; it < nTh; it++ {
						for ip := 0; ip < nPh; ip++ {
							ops.XOff[it*nPh+ip] = int32((it*pf + min(ip, nPh-1-ip)) * nE)
						}
					}
					// Each sum is target·2^frac plus two terms of magnitude below
					// half, so every index is target−1, target or target+1: inside
					// int16 for targets one step off the rails, as narrowProven
					// guarantees of the real formats.
					targets := []int32{-32767, -1, 0, 1, int32(win) - 1, int32(win), min(int32(win)+1, 32766), 32766}
					one := int32(1) << frac
					noise := func() int32 { return int32(h.next()%uint64(one)) - one/2 }
					depthRows := make([][]int32, cfg.Vol.Depth.N)
					for id := range depthRows {
						depthRows[id] = make([]int32, (nPh+1)*nE)
						for i := range depthRows[id][:nPh*nE] {
							tg := targets[h.next()%uint64(len(targets))]
							if h.next()%3 == 0 {
								tg = min(int32(h.next()%uint64(win+2))-1, 32766)
							}
							depthRows[id][i] = tg<<frac + noise()
						}
					}
					for i := range ops.XT {
						ops.XT[i] = noise()
					}
					fill := func(id int, blk delay.Block16) {
						for k := 0; k < nTh*nPh; k++ {
							r, x := depthRows[id][k%nPh*nE:][:nE], ops.XT[ops.XOff[k]:][:nE]
							for d := range r {
								v := r[d] + x[d]
								blk[k*nE+d] = int16((v + ops.Half + v>>31) >> frac)
							}
						}
					}
					rows := func(id int, ry []int32) { copy(ry, depthRows[id]) }
					name := fmt.Sprintf("%d×%d frac=%d", ap.nx, ap.ny, frac)
					h.fillPlane(true)
					h.fusedRun(t, name+" dirty-guards", ops, fill, rows, 1.0/32767)
					h.pinPlane()
					h.fusedRun(t, name+" pinned", ops, fill, rows, 1.0)
				}
			}
		}
	})
}

// unfusedProvider hides a generator's delay.SteerSource, so a session over
// it fills blocks: the golden twin's route.
type unfusedProvider struct{ delay.BlockProvider }

// countingSteer counts the fused route's per-nappe operand builds — the
// route pin: one call per non-resident (nappe, transmit) per frame where the
// fused body runs, none anywhere else.
type countingSteer struct {
	*tablesteer.Provider
	rows atomic.Int64
}

func (c *countingSteer) SteerRows(id int, ry []int32) {
	c.rows.Add(1)
	c.Provider.SteerRows(id, ry)
}

// steerCompound is a TABLESTEER compound setup: the psf aperture over a
// small volume, nTx axial transmits (the folded table needs on-axis
// origins), one counting generator per transmit and each transmit's echoes.
type steerCompound struct {
	cfg   Config
	gens  []*countingSteer
	bufs  [][]rf.EchoBuffer // [transmit][element]
	win   int
	depth int
}

func newSteerCompound(t *testing.T, nTx int, prec Precision) *steerCompound {
	t.Helper()
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 24)
	cfg.Precision = prec
	txs := delay.AxialTransmits(nTx, -0.002, -0.008)
	base := steerProvider(cfg, fixed.U13p5, fixed.S13p4)
	sc := &steerCompound{cfg: cfg, win: 1400, depth: cfg.Vol.Depth.N}
	for _, tx := range txs {
		p, err := base.WithTransmit(tx)
		if err != nil {
			t.Fatal(err)
		}
		sc.gens = append(sc.gens, &countingSteer{Provider: p.(*tablesteer.Provider)})
		bufs, err := rf.Synthesize(rf.Config{
			Arr: cfg.Arr, Conv: cfg.Conv, Pulse: rf.NewPulse(4e6, 4e6),
			Origin: tx.Origin, BufSamples: sc.win,
		}, rf.PointPhantom(target))
		if err != nil {
			t.Fatal(err)
		}
		sc.bufs = append(sc.bufs, bufs)
	}
	return sc
}

// session builds a session over the transmit set: fused (the generators
// themselves) or unfused (the same generators behind unfusedProvider), and
// uncached (budget < -1) or through one delaycache store of that budget.
func (sc *steerCompound) session(t *testing.T, fused bool, budget int64) (*Session, *delaycache.Cache) {
	t.Helper()
	blocks := make([]delay.BlockProvider, len(sc.gens))
	for i, g := range sc.gens {
		blocks[i] = g
		if !fused {
			blocks[i] = unfusedProvider{g}
		}
	}
	var cache *delaycache.Cache
	if budget >= -1 {
		var err error
		if cache, err = delaycache.New(delaycache.Config{Providers: blocks, Depths: sc.depth, BudgetBytes: budget}); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := New(sc.cfg).NewSessionGenerators(blocks, cache)
	if err != nil {
		t.Fatal(err)
	}
	return sess, cache
}

// frames returns n compound frames (each transmit's echoes scaled per
// frame) as echo buffers and as the guarded i16 planes rf.PlaneI16 builds.
func (sc *steerCompound) frames(t *testing.T, n int) ([][][]rf.EchoBuffer, [][][]int16, [][]float32) {
	t.Helper()
	bufs := make([][][]rf.EchoBuffer, n)
	planes := make([][][]int16, n)
	scales := make([][]float32, n)
	for k := range bufs {
		for _, tx := range sc.bufs {
			f := scaledFrames(tx, k+1)[k]
			p, s, err := rf.PlaneI16(f, sc.win)
			if err != nil {
				t.Fatal(err)
			}
			bufs[k] = append(bufs[k], f)
			planes[k] = append(planes[k], p)
			scales[k] = append(scales[k], s)
		}
	}
	return bufs, planes, scales
}

func (sc *steerCompound) rows() int64 {
	n := int64(0)
	for _, g := range sc.gens {
		n += g.rows.Load()
	}
	return n
}

// sameVolumes fails on the first voxel where got differs from want.
func sameVolumes(t *testing.T, name string, got, want []*Volume) {
	t.Helper()
	peak := 0.0
	for k := range want {
		for i := range want[k].Data {
			if got[k].Data[i] != want[k].Data[i] {
				t.Fatalf("%s frame %d voxel %d: %v != %v", name, k, i, got[k].Data[i], want[k].Data[i])
			}
			peak = max(peak, want[k].Data[i], -want[k].Data[i])
		}
	}
	if peak == 0 {
		t.Fatalf("%s: all-zero volumes prove nothing", name)
	}
}

// TestFusedSteerSessionsMatchUnfused holds whole sessions to the twin: a
// session over the TABLESTEER generators against the same session with
// their SteerSource hidden, bit for bit, in every shape the fused route
// serves — single and 4-transmit compound (store then add), calls of 1
// and 3 frames, buffer-fed and plane-fed, uncached and through a
// half-budget delaycache (only its non-resident nappes take the route).
// The route pin: the fused session builds operand rows exactly once per
// non-resident (nappe, transmit) per frame where the fused body exists and
// never otherwise, and both sessions' cache counters read the same, because
// a fused run counts the miss the fill it replaces would have.
func TestFusedSteerSessionsMatchUnfused(t *testing.T) {
	eachSteerBody(t, func(t *testing.T) {
		for _, nTx := range []int{1, 4} {
			sc := newSteerCompound(t, nTx, PrecisionInt16)
			bufs, planes, scales := sc.frames(t, 3)
			blockBytes := int64(sc.cfg.Vol.Theta.N*sc.cfg.Vol.Phi.N*len(sc.bufs[0])) * 2
			half := int64(sc.depth*nTx/2) * blockBytes
			for _, budget := range []int64{-2, half} {
				nonResident := int64(sc.depth * nTx)
				if budget >= 0 {
					nonResident -= budget / blockBytes
				}
				for _, n := range []int{1, 3} {
					for _, fed := range []string{"buffers", "planes"} {
						name := fmt.Sprintf("tx=%d budget=%d batch=%d %s", nTx, budget, n, fed)
						run := func(fused bool) ([]*Volume, delaycache.Stats) {
							sess, cache := sc.session(t, fused, budget)
							defer sess.Close()
							dsts := make([]*Volume, n)
							for k := range dsts {
								dsts[k] = sess.NewVolume()
							}
							for range 2 { // the second call runs warm
								var err error
								if fed == "buffers" {
									err = sess.BeamformBatch(dsts, bufs[:n])
								} else {
									err = sess.BeamformBatchPlanesI16(dsts, sc.win, planes[:n], scales[:n])
								}
								if err != nil {
									t.Fatal(err)
								}
							}
							var st delaycache.Stats
							if cache != nil {
								st = cache.Stats()
							}
							return dsts, st
						}
						before := sc.rows()
						want, wantSt := run(false)
						if sc.rows() != before {
							t.Fatalf("%s: the unfused session built fused operand rows", name)
						}
						got, gotSt := run(true)
						sameVolumes(t, name, got, want)
						wantRows := int64(0)
						if fusedSteer() {
							wantRows = 2 * int64(n) * nonResident
						}
						if rows := sc.rows() - before; rows != wantRows {
							t.Errorf("%s: %d fused operand builds, want %d", name, rows, wantRows)
						}
						if gotSt.Hits != wantSt.Hits || gotSt.Misses != wantSt.Misses {
							t.Errorf("%s: fused session counted %d hits / %d misses, fill-then-accumulate %d / %d",
								name, gotSt.Hits, gotSt.Misses, wantSt.Hits, wantSt.Misses)
						}
					}
				}
			}
		}
	})
}

// TestFusedSteerCountsOneMissPerNonResident: through a half-budget cache, an
// i16 TABLESTEER session asks the cache once per (transmit, nappe) per
// frame, so a 3-frame call asks 3× per pair. Each fused non-resident pair
// counts exactly one miss per frame, on the attachment and on the store,
// and fills no block. Each resident pair counts one fill on the first frame
// of the first call and one hit on every later frame.
func TestFusedSteerCountsOneMissPerNonResident(t *testing.T) {
	sc := newSteerCompound(t, 2, PrecisionInt16)
	bufs, _, _ := sc.frames(t, 3)
	blockBytes := int64(sc.cfg.Vol.Theta.N*sc.cfg.Vol.Phi.N*len(sc.bufs[0])) * 2
	resident := int64(sc.depth * len(sc.gens) / 2)
	sess, cache := sc.session(t, true, resident*blockBytes)
	defer sess.Close()
	nonResident := int64(sc.depth*len(sc.gens)) - resident
	dsts := []*Volume{sess.NewVolume(), sess.NewVolume(), sess.NewVolume()}
	frames := int64(len(dsts))
	for batch := 0; batch < 3; batch++ {
		before, rows := cache.Stats(), sc.rows()
		if err := sess.BeamformBatch(dsts, bufs); err != nil {
			t.Fatal(err)
		}
		after := cache.Stats()
		wantMisses, wantHits := frames*nonResident, frames*resident
		if batch == 0 {
			wantMisses, wantHits = frames*nonResident+resident, (frames-1)*resident
		}
		if after.Misses-before.Misses != wantMisses || after.Hits-before.Hits != wantHits ||
			after.Fills != resident || cache.Shared().Stats().Misses != after.Misses {
			t.Errorf("batch %d: stats %+v → %+v, want %d more misses, %d more hits, %d fills",
				batch, before, after, wantMisses, wantHits, resident)
		}
		if fusedSteer() && sc.rows()-rows != frames*nonResident {
			t.Errorf("batch %d: %d fused operand builds, want %d", batch, sc.rows()-rows, frames*nonResident)
		}
	}
}

// TestFusedSteerRoutes pins what never takes the fused route: the float64
// precision, TABLESTEER's float datapath and the unproven formats that fill
// through the scalar law (no operands at all) — each session builds no
// operand rows and equals its block-filling twin.
func TestFusedSteerRoutes(t *testing.T) {
	for _, prec := range []Precision{PrecisionFloat64} {
		sc := newSteerCompound(t, 2, prec)
		bufs, _, _ := sc.frames(t, 1)
		run := func(fused bool) []*Volume {
			sess, _ := sc.session(t, fused, -2)
			defer sess.Close()
			dst := []*Volume{sess.NewVolume()}
			if err := sess.BeamformBatch(dst, bufs); err != nil {
				t.Fatal(err)
			}
			return dst
		}
		sameVolumes(t, prec.String(), run(true), run(false))
		if n := sc.rows(); n != 0 {
			t.Errorf("%s session built %d fused operand rows", prec, n)
		}
	}

	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 5, 3, 4)
	float := steerProvider(cfg, fixed.U13p5, fixed.S13p4)
	float.UseFixed = false
	unproven := steerProvider(cfg, fixed.Format{IntBits: 16, FracBits: 3}, fixed.S13p4)
	for name, p := range map[string]*tablesteer.Provider{"float datapath": float, "scalar-law u16.3": unproven} {
		if p.SteerOperands() != nil {
			t.Errorf("%s offers fused operands", name)
		}
		c := &countingSteer{Provider: p}
		cfg.Precision = PrecisionInt16
		sess, err := New(cfg).NewSession(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Beamform(bufs); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		if n := c.rows.Load(); n != 0 {
			t.Errorf("%s: i16 session built %d fused operand rows", name, n)
		}
	}
}

// TestFusedSteerSteadyStateAllocFree: an uncached TABLESTEER i16 session —
// every nappe on the fused route — allocates nothing per frame once warm,
// plane-fed or buffer-fed: ry is the worker's, and SteerRows unfolds into
// its last row.
func TestFusedSteerSteadyStateAllocFree(t *testing.T) {
	sc := newSteerCompound(t, 2, PrecisionInt16)
	bufs, planes, scales := sc.frames(t, 1)
	sess, _ := sc.session(t, true, -2)
	defer sess.Close()
	dst := sess.NewVolume()
	dsts := []*Volume{dst}
	runs := map[string]func(){
		"planes":  func() { _ = sess.BeamformBatchPlanesI16(dsts, sc.win, planes, scales) },
		"buffers": func() { _ = sess.BeamformCompoundInto(dst, bufs[0]) },
	}
	for name, run := range runs {
		run() // warm: sizes the plane, builds the operand table
		if avg := testing.AllocsPerRun(10, run); avg > 0 {
			t.Errorf("steady-state fused %s batch allocates %.1f objects, want 0", name, avg)
		}
	}
}

// TestFusedSteerConcurrentSessions runs several i16 sessions at once over
// one set of generators — uncached, and attached to one shared half-budget
// store — and holds every volume to a sequentially computed one. Under
// -race this is the proof that the tiled x table, the generators' tables
// and the store are only read by the fused route.
func TestFusedSteerConcurrentSessions(t *testing.T) {
	eachSteerBody(t, func(t *testing.T) {
		sc := newSteerCompound(t, 3, PrecisionInt16)
		bufs, _, _ := sc.frames(t, 2)
		ref, _ := sc.session(t, false, -2)
		want := make([]*Volume, len(bufs))
		for k, f := range bufs {
			want[k] = ref.NewVolume()
			if err := ref.BeamformCompoundInto(want[k], f); err != nil {
				t.Fatal(err)
			}
		}
		ref.Close()
		blocks := make([]delay.BlockProvider, len(sc.gens))
		for i, g := range sc.gens {
			blocks[i] = g
		}
		blockBytes := int64(sc.cfg.Vol.Theta.N*sc.cfg.Vol.Phi.N*len(sc.bufs[0])) * 2
		shared, err := delaycache.NewShared(delaycache.Config{Providers: blocks, Depths: sc.depth, BudgetBytes: int64(sc.depth) * blockBytes})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var c *delaycache.Cache
				if g%2 == 1 {
					c = shared.Attach()
					defer c.Detach()
				}
				cfg := sc.cfg
				cfg.Workers = 2
				sess, err := New(cfg).NewSessionGenerators(blocks, c)
				if err != nil {
					t.Error(err)
					return
				}
				defer sess.Close()
				out := sess.NewVolume()
				for round := 0; round < 2; round++ {
					for k, f := range bufs {
						if err := sess.BeamformCompoundInto(out, f); err != nil {
							t.Error(err)
							return
						}
						for i := range out.Data {
							if out.Data[i] != want[k].Data[i] {
								t.Errorf("session %d frame %d voxel %d: %v != %v", g, k, i, out.Data[i], want[k].Data[i])
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}
