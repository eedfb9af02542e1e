// The session matrix. Session.Run is the one way a session beamforms a
// frame, and Engine.NewSession the one way to build a session, so one case
// generator (sessionCases) names every session shape the matrix holds:
// precision and generator (the exact law at float64 or i16, or TABLESTEER's
// fused i16 route), delay residency (uncached, or a store holding every
// block, half of them or none), one or three transmits, the frame form
// (echo buffers, or int16 planes at i16), one, three or eight workers, and
// an order of three distinct frames with repeats and a window change.
//
// Each scene (sceneFor) computes its twin once per frame: the scalar law
// summed in transmit order, BeamformScalar's store-then-add, at float64,
// and accumulateNappe16I16Ref over the generator's blocks on the plane
// rf.PlaneI16 quantizes at i16, held ≥ 60 dB PSNR against the float64 one.
// Every case runs its frames through Run and again through the benchmark's
// BeamformBatch* column, with the delay store evicted in between, and each
// volume must equal its twin bit for bit. The Test* functions are the
// matrix's rows: == the twin with the Frames count and the generator and
// fused-row counts, zero steady-state allocations, the refusal tables, and
// concurrent Frames scrapes under -race. The route rows in the kernel test
// files run the same cases with the CPUID probes cleared (sessionRows).
package beamform

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// sessionCase is one session shape of the matrix.
type sessionCase struct {
	kind    string // "f64" or "i16": the exact law; "steer": i16 TABLESTEER, fused where non-resident
	nTx     int
	budget  string // "uncached", "full", "half" or "none"
	planes  bool   // frames arrive as int16 planes (i16 kinds only)
	workers int    // 0 = GOMAXPROCS
	order   []int  // indices into the scene's frames, run in turn
}

func (c sessionCase) String() string {
	form := "bufs"
	if c.planes {
		form = "planes"
	}
	return fmt.Sprintf("%s/tx%d/%s/%s/w%d/%v", c.kind, c.nTx, c.budget, form, c.workers, c.order)
}

// frameOrders each repeat a frame and cross the window change between
// frames 1 and 2; every one holds two consecutive distinct frames of one
// window, so a plane converted once and reused would show.
var frameOrders = [][]int{{0, 1, 2, 0}, {2, 2, 1, 0}, {1, 0, 0, 2}}

// sessionCases is the generator: every kind, transmit count, residency and
// frame form, with the worker counts and frame orders rotating over them.
func sessionCases() (out []sessionCase) {
	for _, kind := range []string{"f64", "i16", "steer"} {
		for _, nTx := range []int{1, 3} {
			for _, budget := range []string{"uncached", "full", "half", "none"} {
				for _, planes := range []bool{false, true} {
					if planes && kind == "f64" {
						continue
					}
					i := len(out)
					out = append(out, sessionCase{kind, nTx, budget, planes, []int{1, 3, 8}[i%3], frameOrders[i/3%3]})
				}
			}
		}
	}
	return out
}

// sessionScene is the geometry, generators and frames of one (kind, nTx).
type sessionScene struct {
	cfg    Config
	gens   []delay.BlockProvider
	fills  func() int64 // generator block fills so far
	rows   func() int64 // fused operand rows built so far
	frames []sceneFrame
}

// sceneFrame is one frame in both forms, and its twin.
type sceneFrame struct {
	bufs   [][]rf.EchoBuffer
	planes [][]int16
	scales []float32
	win    int
	twin   *Volume
}

func (f sceneFrame) frame(planes bool) Frame {
	if planes {
		return Frame{Planes: f.planes, Scales: f.scales, Win: f.win}
	}
	return Frame{Bufs: f.bufs}
}

var sessionScenes = map[string]*sessionScene{}

// sceneFor is the scene of kind with nTx transmits, built once per test
// binary: a 9×3×20 grid under an 8×8 Hann aperture, with steered transmits
// of the exact law, or axial ones of TABLESTEER's proven u13.5/s13.4
// datapath for "steer". Frame 0 is the echoes as synthesized plus a little
// noise, so that no voxel of a volume is zero; frame 1 is frame 0 scaled by
// 1.25, frame 2 scaled by 1.5 with every row 7 samples shorter.
func sceneFor(t *testing.T, kind string, nTx int) *sessionScene {
	key := fmt.Sprint(kind, nTx)
	if sc := sessionScenes[key]; sc != nil {
		return sc
	}
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 20)
	cfg.Arr = xdcr.NewArray(8, 8, 0.385e-3/2)
	var base delay.Provider = exactProvider(cfg)
	txs := delay.SteeredTransmits(nTx, 0.004, 0.004)
	if kind == "steer" { // the folded table needs on-axis origins
		base, txs = steerProvider(cfg, fixed.U13p5, fixed.S13p4), delay.AxialTransmits(nTx, -0.002, -0.008)
	}
	if kind != "f64" {
		cfg.Precision = PrecisionInt16
	}
	provs, echoes := compoundSetup(t, cfg, base, txs, target)
	sc := &sessionScene{cfg: cfg}
	var steers []*countingSteer
	var blocks []*countingBlock
	for _, p := range provs {
		if ts, ok := p.(*tablesteer.Provider); ok {
			steers = append(steers, &countingSteer{Provider: ts})
			sc.gens = append(sc.gens, steers[len(steers)-1])
		} else {
			blocks = append(blocks, &countingBlock{BlockProvider: delay.AsBlock(p, New(cfg).layout())})
			sc.gens = append(sc.gens, blocks[len(blocks)-1])
		}
	}
	sc.fills = func() (n int64) {
		for _, c := range steers {
			n += c.fills.Load()
		}
		for _, c := range blocks {
			n += c.calls.Load()
		}
		return n
	}
	sc.rows = func() (n int64) {
		for _, c := range steers {
			n += c.rows.Load()
		}
		return n
	}
	rng := rand.New(rand.NewSource(44))
	for _, bufs := range echoes {
		for _, b := range bufs {
			for i := range b.Samples {
				b.Samples[i] += 1e-3 * rng.NormFloat64()
			}
		}
	}
	eng := New(sc.cfg)
	for k, v := range []struct {
		scale float64
		trim  int
	}{{1, 0}, {1.25, 0}, {1.5, 7}} {
		f := sceneFrame{win: len(echoes[0][0].Samples) - v.trim}
		for _, bufs := range echoes {
			f.bufs = append(f.bufs, scaledEchoes(bufs, v.scale, f.win))
		}
		f.twin = sc.twin(eng, f.bufs, nil, nil)
		if sc.cfg.Precision == PrecisionInt16 {
			for _, bufs := range f.bufs {
				plane, scale, err := rf.PlaneI16(bufs, f.win)
				if err != nil {
					t.Fatal(err)
				}
				f.planes, f.scales = append(f.planes, plane), append(f.scales, scale)
			}
			golden := f.twin
			f.twin = sc.twin(eng, nil, f.planes, f.scales)
			if psnr, err := PeakSignalRatio(golden, f.twin); err != nil || psnr < 60 {
				t.Fatalf("%s frame %d: i16 twin PSNR %.1f dB against the float64 one, want ≥ 60 (%v)", key, k, psnr, err)
			}
		}
		sc.frames = append(sc.frames, f)
	}
	sessionScenes[key] = sc
	return sc
}

// twin beamforms one frame by hand, transmit 0 storing and the rest adding:
// from the scalar law over bufs, or through accumulateNappe16I16Ref over
// the generators' blocks on planes.
func (sc *sessionScene) twin(eng *Engine, bufs [][]rf.EchoBuffer, planes [][]int16, scales []float32) *Volume {
	vol := sc.cfg.Vol
	out := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
	blk := make(delay.Block16, eng.layout().BlockLen())
	for ti, g := range sc.gens {
		for id := range vol.Depth.N {
			if planes == nil {
				eng.beamformNappe(g, bufs[ti], id, out, ti > 0)
				continue
			}
			g.FillNappe16(id, blk)
			win := len(planes[ti])/sc.cfg.Arr.Elements() - 1
			eng.accumulateNappe16I16Ref(blk, planes[ti], eng.i16GatherTable(win), id, out, eng.i16VoxelScale(scales[ti]), ti > 0)
		}
	}
	return out
}

// scaledEchoes is bufs scaled by scale, every row cut to win samples.
func scaledEchoes(bufs []rf.EchoBuffer, scale float64, win int) []rf.EchoBuffer {
	out := make([]rf.EchoBuffer, len(bufs))
	for d, b := range bufs {
		out[d].Samples = make([]float64, win)
		for i := range out[d].Samples {
			out[d].Samples[i] = b.Samples[i] * scale
		}
	}
	return out
}

// session builds c's session over sc's generators on eng — a fresh engine
// of c's worker count when nil: uncached, or attached to store — a fresh
// one of c's budget when nil.
func (c sessionCase) session(t testing.TB, sc *sessionScene, eng *Engine, store *delaycache.Shared) (*Session, *delaycache.Cache) {
	t.Helper()
	var cache *delaycache.Cache
	if c.budget != "uncached" {
		if store == nil {
			blocks := int64(len(sc.gens) * sc.cfg.Vol.Depth.N)
			budget := map[string]int64{"full": -1, "half": blocks / 2, "none": 0}[c.budget]
			if budget > 0 {
				budget *= 2 * int64(New(sc.cfg).layout().BlockLen())
			}
			var err error
			if store, err = delaycache.NewShared(delaycache.Config{Providers: sc.gens, Depths: sc.cfg.Vol.Depth.N, BudgetBytes: budget}); err != nil {
				t.Fatal(err)
			}
		}
		cache = store.Attach()
	}
	if eng == nil {
		cfg := sc.cfg
		cfg.Workers = c.workers
		eng = New(cfg)
	}
	sess, err := eng.NewSession(sc.gens, cache)
	if err != nil {
		t.Fatal(err)
	}
	return sess, cache
}

// run holds c's session to the twins: each frame of c.order through Run
// into one reused volume (a plane case then runs one buffer frame), the
// store evicted, then the same frames through the BeamformBatch* column.
// The session counts every frame; the generators fill each resident block
// once per store generation and every other block once per frame, unless
// the fused steer route builds its operand rows instead.
func (c sessionCase) run(t *testing.T) {
	sc := sceneFor(t, c.kind, c.nTx)
	fills, rows := sc.fills(), sc.rows()
	sess, cache := c.session(t, sc, nil, nil)
	defer sess.Close()
	out := sess.NewVolume()
	twins := make([]*Volume, len(c.order))
	for i, k := range c.order {
		if err := sess.Run(out, sc.frames[k].frame(c.planes)); err != nil {
			t.Fatalf("%v frame %d: %v", c, i, err)
		}
		twins[i] = sc.frames[k].twin
		sameVolumes(t, fmt.Sprintf("%v Run frame %d:", c, i), []*Volume{out}, twins[i:i+1])
	}
	frames := int64(2 * len(c.order))
	if c.planes { // a buffer frame between plane frames converts into the session's own planes
		if err := sess.Run(out, sc.frames[c.order[0]].frame(false)); err != nil {
			t.Fatal(err)
		}
		sameVolumes(t, fmt.Sprintf("%v buffer frame among planes:", c), []*Volume{out}, twins[:1])
		frames++
	}
	resident, generations := 0, int64(1)
	if cache != nil {
		resident, generations = cache.Shared().ResidentBlocks(), 2
		cache.Shared().Evict()
		if st := cache.Shared().Stats(); st.Evictions != 1 || st.BytesResident != 0 {
			t.Errorf("%v: store after Evict: %+v", c, st)
		}
	}
	dsts := make([]*Volume, len(c.order))
	for i := range dsts {
		dsts[i] = sess.NewVolume()
	}
	if c.planes { // one plane batch per run of frames of one window
		for i, j := 0, 0; i < len(c.order); i = j {
			var planes [][][]int16
			var scales [][]float32
			win := sc.frames[c.order[i]].win
			for ; j < len(c.order) && sc.frames[c.order[j]].win == win; j++ {
				planes, scales = append(planes, sc.frames[c.order[j]].planes), append(scales, sc.frames[c.order[j]].scales)
			}
			if err := sess.BeamformBatchPlanesI16(dsts[i:j], win, planes, scales); err != nil {
				t.Fatalf("%v: %v", c, err)
			}
		}
	} else {
		batch := make([][][]rf.EchoBuffer, len(c.order))
		for i, k := range c.order {
			batch[i] = sc.frames[k].bufs
		}
		if err := sess.BeamformBatch(dsts, batch); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	sameVolumes(t, fmt.Sprintf("%v batch", c), dsts, twins)

	nonResident := frames * int64(len(sc.gens)*sc.cfg.Vol.Depth.N-resident)
	wantFills, wantRows := generations*int64(resident), int64(0)
	if c.kind == "steer" && fusedSteer() {
		wantRows = nonResident
	} else {
		wantFills += nonResident
	}
	if got := sess.Frames(); got != frames {
		t.Errorf("%v: Frames = %d, want %d", c, got, frames)
	}
	if c.workers > 0 && sess.Workers() != c.workers {
		t.Errorf("%v: %d workers", c, sess.Workers())
	}
	if got := sc.fills() - fills; got != wantFills {
		t.Errorf("%v: generators filled %d blocks, want %d", c, got, wantFills)
	}
	if got := sc.rows() - rows; got != wantRows {
		t.Errorf("%v: %d fused operand rows built, want %d", c, got, wantRows)
	}
}

// sessionRows runs kind's three-transmit case, uncached and through a
// half-budget store, over frames of both windows, in each frame form the
// kind takes, on each named route the host offers ("host" is the probes as
// the host set them), as subtests named after the route.
func sessionRows(t *testing.T, kind string, names ...string) {
	ran := 0
	for i, r := range hostRoutes() {
		if !slices.Contains(names, r.name) && (i > 0 || !slices.Contains(names, "host")) {
			continue
		}
		ran++
		t.Run(r.name, func(t *testing.T) {
			defer r.use()()
			if msg := r.wrongBodies(); msg != "" {
				t.Fatal(msg)
			}
			for _, budget := range []string{"uncached", "half"} {
				for _, planes := range []bool{false, true} {
					if !planes || kind != "f64" {
						sessionCase{kind, 3, budget, planes, 0, []int{0, 2}}.run(t)
					}
				}
			}
		})
	}
	if ran == 0 {
		t.Skip("this host offers none of the routes", names)
	}
}

// countingBlock counts generator runs; session workers fill concurrently.
type countingBlock struct {
	delay.BlockProvider
	calls atomic.Int64
}

func (c *countingBlock) FillNappe16(id int, dst delay.Block16) {
	c.calls.Add(1)
	c.BlockProvider.FillNappe16(id, dst)
}

// compoundSetup builds a small compound scene: per-transmit providers
// derived from base and per-transmit echo sets of one point phantom.
func compoundSetup(t testing.TB, cfg Config, base delay.Provider, txs []delay.Transmit, target geom.Vec3) ([]delay.Provider, [][]rf.EchoBuffer) {
	t.Helper()
	provs, err := delay.ForTransmits(base, txs)
	if err != nil {
		t.Fatal(err)
	}
	txBufs := make([][]rf.EchoBuffer, len(txs))
	for i, tx := range txs {
		bufs, err := rf.Synthesize(rf.Config{
			Arr: cfg.Arr, Conv: cfg.Conv, Pulse: rf.NewPulse(4e6, 4e6),
			Origin: tx.Origin, BufSamples: 1400,
		}, rf.PointPhantom(target))
		if err != nil {
			t.Fatal(err)
		}
		txBufs[i] = bufs
	}
	return provs, txBufs
}

// runFrame beamforms one frame of per-transmit echoes into a fresh volume.
func runFrame(t testing.TB, sess *Session, tx ...[]rf.EchoBuffer) *Volume {
	t.Helper()
	out := sess.NewVolume()
	if err := sess.Run(out, Frame{Bufs: tx}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionMatchesScalarReference is the matrix's main row: every
// generated case equals its twins, frame for frame, through Run and the
// batch column, with the Frames, fill and fused-row counts pinned. An i16
// engine whose aperture failed the int32 accumulator bound runs plane
// frames widened to float64 buffers: == the scalar law over the
// dequantized samples.
func TestSessionMatchesScalarReference(t *testing.T) {
	for _, c := range sessionCases() {
		t.Run(c.String(), c.run)
	}
	t.Run("i16-demoted", func(t *testing.T) {
		sc := sceneFor(t, "i16", 3)
		eng := New(sc.cfg)
		eng.i16OK = false
		sess, err := eng.NewSession(sc.gens, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		f := sc.frames[1]
		widened := make([][]rf.EchoBuffer, len(f.planes))
		for ti, p := range f.planes {
			for d := 0; d < len(p); d += f.win + 1 {
				row := make([]float64, f.win)
				for i := range row {
					row[i] = float64(p[d+i]) * float64(f.scales[ti])
				}
				widened[ti] = append(widened[ti], rf.EchoBuffer{Samples: row})
			}
		}
		got := sess.NewVolume()
		if err := sess.Run(got, f.frame(true)); err != nil {
			t.Fatal(err)
		}
		sameVolumes(t, "demoted plane frame", []*Volume{got}, []*Volume{sc.twin(eng, widened, nil, nil)})
	})
}

// FuzzSessionConformance drives the main row past its generator: shape
// picks the kind, transmit count, residency, frame form and 1–8 workers,
// and order runs up to eight of the scene's frames in any sequence (frame 0
// when empty). The seeds are one case per kind and frame form.
func FuzzSessionConformance(f *testing.F) {
	for _, shape := range []uint16{0, 1, 25, 2, 26} {
		f.Add(shape, []byte{0, 1, 2, 0})
	}
	f.Fuzz(func(t *testing.T, shape uint16, order []byte) {
		c := sessionCase{
			kind:    []string{"f64", "i16", "steer"}[shape%3],
			nTx:     []int{1, 3}[shape/3%2],
			budget:  []string{"uncached", "full", "half", "none"}[shape/6%4],
			planes:  shape%3 > 0 && shape/24%2 == 1,
			workers: 1 + int(shape/48%8),
		}
		for _, k := range order[:min(len(order), 8)] {
			c.order = append(c.order, int(k%3))
		}
		if c.order == nil {
			c.order = []int{0}
		}
		c.run(t)
	})
}

// TestSessionSteadyStateAllocFree: once the first frame has sized the
// planes and warmed the store, Run and the batch column allocate nothing —
// at full residency for each precision and frame form, uncached on the
// exact law (every nappe regenerated, through a generator that holds its
// element grid), and on the fused TABLESTEER route (uncached, so every
// nappe takes it): the block, the int32 row and the operand rows are the
// workers'.
func TestSessionSteadyStateAllocFree(t *testing.T) {
	for _, c := range []sessionCase{
		{kind: "i16", nTx: 3, budget: "uncached"},
		{kind: "f64", nTx: 3, budget: "full"},
		{kind: "i16", nTx: 3, budget: "full"},
		{kind: "i16", nTx: 3, budget: "full", planes: true},
		{kind: "steer", nTx: 3, budget: "uncached"},
		{kind: "steer", nTx: 3, budget: "uncached", planes: true},
	} {
		sc := sceneFor(t, c.kind, c.nTx)
		sess, _ := c.session(t, sc, nil, nil)
		f := sc.frames[0]
		dst, dsts, frame := sess.NewVolume(), []*Volume{sess.NewVolume()}, f.frame(c.planes)
		batch, planes, scales := [][][]rf.EchoBuffer{f.bufs}, [][][]int16{f.planes}, [][]float32{f.scales}
		for name, run := range map[string]func() error{
			"Run": func() error { return sess.Run(dst, frame) },
			"batch": func() error {
				if c.planes {
					return sess.BeamformBatchPlanesI16(dsts, f.win, planes, scales)
				}
				return sess.BeamformBatch(dsts, batch)
			},
		} {
			if err := run(); err != nil { // warm
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(10, func() { _ = run() }); avg > 0 {
				t.Errorf("%v %s allocates %.1f objects per frame, want 0", c, name, avg)
			}
		}
		sess.Close()
	}
}

// refusalFixture holds what the refusal tables share: an uncached float64
// single-transmit session and a full-budget i16 session over three
// transmits, a destination of each, and the i16 scene's first frame.
type refusalFixture struct {
	sc64, sc16 *sessionScene
	s64, s16   *Session
	c16        *delaycache.Cache
	v64, v16   *Volume
	b          [][]rf.EchoBuffer // the float64 scene's first frame
	f          sceneFrame        // the i16 scene's first frame
}

func newRefusalFixture(t *testing.T) *refusalFixture {
	fx := &refusalFixture{sc64: sceneFor(t, "f64", 1), sc16: sceneFor(t, "i16", 3)}
	fx.s64, _ = sessionCase{budget: "uncached"}.session(t, fx.sc64, nil, nil)
	fx.s16, fx.c16 = sessionCase{budget: "full"}.session(t, fx.sc16, nil, nil)
	t.Cleanup(func() { fx.s64.Close(); fx.s16.Close() })
	fx.v64, fx.v16 = fx.s64.NewVolume(), fx.s16.NewVolume()
	fx.b, fx.f = fx.sc64.frames[0].bufs, fx.sc16.frames[0]
	return fx
}

// refusal is one row of a refusal table: every call must refuse it.
type refusal struct {
	name  string
	calls []func() error
}

func refused(name string, calls ...func() error) refusal { return refusal{name, calls} }

// refuse runs each row as a subtest. A call refuses before any work, so
// no Frames count moves.
func (fx *refusalFixture) refuse(t *testing.T, rows []refusal) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			before := fx.s64.Frames() + fx.s16.Frames()
			for i, call := range r.calls {
				if err := call(); err == nil {
					t.Fatalf("call %d accepted", i)
				}
			}
			if n := fx.s64.Frames() + fx.s16.Frames() - before; n != 0 {
				t.Errorf("a refused call counted %d frames", n)
			}
		})
	}
}

// TestSessionBeamformIntoValidation holds Run's single-frame checks — the
// destination and the frame's form and shape — and the session's close:
// after the refusals the session still beamforms its twin, Close is
// idempotent, and a closed session refuses every frame.
func TestSessionBeamformIntoValidation(t *testing.T) {
	fx := newRefusalFixture(t)
	s64, s16, v64, v16, b, f := fx.s64, fx.s16, fx.v64, fx.v16, fx.b, fx.f
	fx.refuse(t, []refusal{
		refused("nil_dst", func() error { return s64.Run(nil, Frame{Bufs: b}) }),
		refused("missized_dst", func() error { return s64.Run(&Volume{Vol: fx.sc64.cfg.Vol}, Frame{Bufs: b}) }),
		refused("wrong_grid_dst", func() error { return s64.Run(&Volume{Data: make([]float64, len(v64.Data))}, Frame{Bufs: b}) }),
		refused("no_form", func() error { return s64.Run(v64, Frame{}) }),
		refused("both_forms", func() error {
			return s16.Run(v16, Frame{Bufs: f.bufs, Planes: f.planes, Scales: f.scales, Win: f.win})
		}),
		refused("extra_transmit", func() error { return s64.Run(v64, Frame{Bufs: [][]rf.EchoBuffer{b[0], b[0]}}) }),
		refused("missing_transmit", func() error { return s16.Run(v16, Frame{Bufs: f.bufs[:1]}) }),
		refused("element_count", func() error { return s64.Run(v64, Frame{Bufs: [][]rf.EchoBuffer{b[0][:3]}}) }),
	})
	for _, s := range []struct {
		sess *Session
		dst  *Volume
		f    sceneFrame
	}{{s64, v64, fx.sc64.frames[0]}, {s16, v16, f}} {
		if err := s.sess.Run(s.dst, Frame{Bufs: s.f.bufs}); err != nil {
			t.Fatal(err)
		}
		sameVolumes(t, "after the refusals", []*Volume{s.dst}, []*Volume{s.f.twin})
		s.sess.Close()
		s.sess.Close() // idempotent
		if err := s.sess.Run(s.dst, Frame{Bufs: s.f.bufs}); err == nil {
			t.Error("closed session accepted a frame")
		}
	}
}

// TestBatchPlanesI16Validation holds the int16 plane frame's checks —
// window, plane and scale counts, plane lengths, and the NaN-pinned and
// non-finite scales a wire header could in principle carry — through Run
// and the BeamformBatchPlanesI16 column alike, and the column's own
// destination checks. After the refusals the column still beamforms the
// frame's twin.
func TestBatchPlanesI16Validation(t *testing.T) {
	fx := newRefusalFixture(t)
	s16, v16 := fx.s16, fx.v16
	p, sc, win := fx.f.planes, fx.f.scales, fx.f.win
	plane := func(name string, win int, planes [][]int16, scales ...float32) refusal {
		return refused(name,
			func() error { return s16.Run(v16, Frame{Planes: planes, Scales: scales, Win: win}) },
			func() error {
				return s16.BeamformBatchPlanesI16([]*Volume{v16}, win, [][][]int16{planes}, [][]float32{scales})
			})
	}
	scaled := func(s float32) []float32 { return []float32{sc[0], s, sc[2]} }
	needsI16 := func(run func() error) func() error {
		return func() error {
			err := run()
			if err != nil && !strings.Contains(err.Error(), "i16") {
				return nil // refused, but not for the precision
			}
			return err
		}
	}
	fx.refuse(t, []refusal{
		refused("needs_i16",
			needsI16(func() error { return fx.s64.Run(fx.v64, Frame{Planes: p[:1], Scales: sc[:1], Win: win}) }),
			needsI16(func() error {
				return fx.s64.BeamformBatchPlanesI16([]*Volume{fx.v64}, win, [][][]int16{p[:1]}, [][]float32{sc[:1]})
			})),
		plane("zero_window", 0, p, sc...),
		plane("window_over_max", delay.MaxEchoWindow+1, p, sc...),
		plane("transmit_count", win, p[:2], sc[:2]...),
		plane("scale_arity", win, p, sc[:2]...),
		plane("short_plane", win, [][]int16{p[0], p[1][:10], p[2]}, sc...),
		plane("zero_scale", win, p, scaled(0)...),
		plane("negative_scale", win, p, scaled(-1)...),
		plane("nan_scale", win, p, scaled(float32(math.NaN()))...),
		plane("inf_scale", win, p, scaled(float32(math.Inf(1)))...),
		refused("dst_count", func() error {
			return s16.BeamformBatchPlanesI16([]*Volume{v16}, win, [][][]int16{p, p}, [][]float32{sc, sc})
		}),
		refused("scale_sets", func() error {
			return s16.BeamformBatchPlanesI16([]*Volume{v16}, win, [][][]int16{p}, [][]float32{sc, sc})
		}),
		refused("nil_dst", func() error {
			return s16.BeamformBatchPlanesI16([]*Volume{nil}, win, [][][]int16{p}, [][]float32{sc})
		}),
	})
	if err := s16.BeamformBatchPlanesI16([]*Volume{v16}, win, [][][]int16{p}, [][]float32{sc}); err != nil {
		t.Fatal(err)
	}
	sameVolumes(t, "after the refusals", []*Volume{v16}, []*Volume{fx.f.twin})
}

// TestSessionRefusals is the rest of the refusal table: the BeamformBatch
// column's count checks, the constructor's, and the one-shot
// Engine.Beamform's.
func TestSessionRefusals(t *testing.T) {
	fx := newRefusalFixture(t)
	s64, v64, b := fx.s64, fx.v64, fx.b
	newSession := func(cfg Config, gens []delay.BlockProvider, c *delaycache.Cache) error {
		_, err := New(cfg).NewSession(gens, c)
		return err
	}
	other := fx.sc64.cfg
	other.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 7, 3, 20)
	fx.refuse(t, []refusal{
		refused("batch_dst_count", func() error { return s64.BeamformBatch([]*Volume{v64}, [][][]rf.EchoBuffer{b, b}) }),
		refused("batch_nil_dst", func() error { return s64.BeamformBatch([]*Volume{nil}, [][][]rf.EchoBuffer{b}) }),
		refused("no_generators", func() error { return newSession(fx.sc64.cfg, nil, nil) }),
		refused("nil_generator", func() error { return newSession(fx.sc64.cfg, []delay.BlockProvider{nil}, nil) }),
		refused("generator_layout", func() error { return newSession(other, fx.sc64.gens, nil) }),
		refused("cache_transmits", func() error { return newSession(fx.sc16.cfg, fx.sc16.gens[:1], fx.c16) }),
		refused("cache_layout", func() error {
			e := exactProvider(other)
			return newSession(other, []delay.BlockProvider{e, e, e}, fx.c16)
		}),
		refused("beamform_nil_provider", func() error { _, err := New(fx.sc64.cfg).Beamform(nil, b[0]); return err }),
		refused("beamform_element_count", func() error {
			_, err := New(fx.sc64.cfg).Beamform(fx.sc64.gens[0], b[0][:3])
			return err
		}),
	})
}

// streamConcurrently runs the cases' sessions concurrently — two of each
// cached case attached to one shared store, the sessions of a scene on one
// engine — each frame == its twin, while a scraper reads every session's
// Frames and every attachment's Stats. Under -race this is the proof that
// the kernels, the engine's weight tables, the generators' tables and the
// stores are only read, and that the /stats scrape is synchronized.
func streamConcurrently(t *testing.T, cases []sessionCase) {
	type stream struct {
		c     sessionCase
		sc    *sessionScene
		sess  *Session
		cache *delaycache.Cache
	}
	var streams []stream
	engines := map[*sessionScene]*Engine{}
	for _, c := range cases {
		c.workers, c.order = 2, frameOrders[0][:2]
		sc := sceneFor(t, c.kind, c.nTx)
		if engines[sc] == nil { // the sessions of a scene share one engine's tables
			cfg := sc.cfg
			cfg.Workers = c.workers
			engines[sc] = New(cfg)
		}
		sess, cache := c.session(t, sc, engines[sc], nil)
		streams = append(streams, stream{c, sc, sess, cache})
		if cache != nil { // a second session on the same store
			sess, cache = c.session(t, sc, engines[sc], cache.Shared())
			streams = append(streams, stream{c, sc, sess, cache})
		}
	}
	stop := make(chan struct{})
	var scraper, wg sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range streams {
				if n := s.sess.Frames(); n < 0 || n > int64(len(s.c.order)) {
					t.Errorf("%v: Frames = %d out of [0, %d]", s.c, n, len(s.c.order))
					return
				}
				if s.cache != nil {
					if st := s.cache.Stats(); st.Hits < 0 || st.Misses < 0 {
						t.Errorf("%v: negative cache counters %+v", s.c, st)
						return
					}
				}
			}
		}
	}()
	for _, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, out := s.sc, s.sess.NewVolume()
			for _, k := range s.c.order {
				if err := s.sess.Run(out, sc.frames[k].frame(false)); err != nil {
					t.Error(err)
					return
				}
				if msg := volumesDiffer([]*Volume{out}, []*Volume{sc.frames[k].twin}); msg != "" {
					t.Errorf("%v: %s", s.c, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	for _, s := range streams {
		if s.sess.Frames() != int64(len(s.c.order)) {
			t.Errorf("%v: Frames = %d, want %d", s.c, s.sess.Frames(), len(s.c.order))
		}
		s.sess.Close()
		if s.cache != nil {
			s.cache.Detach()
		}
	}
	for _, s := range streams {
		if s.cache != nil {
			if n := s.cache.Shared().Attachments(); n != 0 {
				t.Errorf("%v: %d attachments after every session detached", s.c, n)
			}
		}
	}
}

// TestSessionScrapeWhileStreaming streams i16 sessions uncached and two on
// one shared half-budget store, and float64 ones two to a full store, on
// every route the host offers (streamConcurrently).
func TestSessionScrapeWhileStreaming(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		streamConcurrently(t, []sessionCase{
			{kind: "i16", nTx: 3, budget: "uncached"}, {kind: "i16", nTx: 3, budget: "half"},
			{kind: "f64", nTx: 1, budget: "full"},
		})
	})
}

// TestFusedSteerConcurrentSessions streams fused TABLESTEER sessions
// uncached and two on one shared half-budget store, on every route the
// host offers (streamConcurrently): the tiled x table, the generators'
// tables and the store are only read by the fused route.
func TestFusedSteerConcurrentSessions(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		streamConcurrently(t, []sessionCase{
			{kind: "steer", nTx: 3, budget: "uncached"}, {kind: "steer", nTx: 3, budget: "half"},
		})
	})
}
