// Property tests for the fixed-point i16 kernel: the native (amd64 AVX2)
// body must be BIT-IDENTICAL to accumulateNappe16I16Ref — not PSNR-close —
// because everything before the final float64 rescale is integer
// arithmetic, and integer addition is associative. The adversarial
// generators here drive exactly the inputs the saturation analysis in
// kernel_i16.go reasons about and the shapes the vector body splits on:
// apertures with an empty vector range, a tail only, one 8-wide remainder
// and the 16-wide loop; window-edge, negative and int16-extreme indices;
// samples pinned at ±32767 with signs aligned to the weights; the
// per-product shift at both ends of its range. Under -tags purego the
// native body IS the reference, so the identity holds trivially and the
// suite still validates the int64 no-overflow cross-check.
package beamform

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// TestI16KernelBody logs which body accumulateNappe16I16 runs on this
// build and host. CI greps the line, so a runner that silently fell back
// to the reference is visible in the log instead of passing unnoticed.
func TestI16KernelBody(t *testing.T) {
	body := i16KernelBody()
	if body != "avx2" && body != "ref" {
		t.Fatalf("unknown i16 kernel body %q", body)
	}
	t.Logf("i16 accumulate body: %s", body)
}

// i16KernelHarness holds one synthetic kernel-call setup: an engine, a
// guarded int16 plane, the operand table, a delay block and the worker
// row the two kernel bodies consume directly.
type i16KernelHarness struct {
	eng   *Engine
	plane []int16
	tab   *i16Table
	blk   delay.Block16
	row   []int32
	win   int
	rng   uint64
}

// i16Apertures are the element counts the vector body splits on: 1 and 7
// (vector range empty), 8 (one group, all of it scalar tail), 9 and 16 (one
// 8-wide remainder), 17 (two groups, the second tail), 144 (the 16-wide
// loop plus a remainder) and 256 (the 16-wide loop, then a full tail group).
var i16Apertures = []struct{ nx, ny int }{{1, 1}, {7, 1}, {8, 1}, {3, 3}, {4, 4}, {17, 1}, {12, 12}, {16, 16}}

// newI16Harness builds an engine over an nx×ny array (Rect keeps every
// element active, Hann zeroes the border, so zero weights sit inside the
// vector range) and allocates the plane/block buffers for the given
// window. Every other quantized weight is negated, which
// keeps the accumulator bound (Σ|wq| is unchanged) and makes the weight
// table's zero-extension observable.
func newI16Harness(t testing.TB, nx, ny, win int, window xdcr.Window) *i16KernelHarness {
	t.Helper()
	return newI16HarnessFor(t, Config{
		Vol:    scan.NewVolume(geom.Radians(30), geom.Radians(8), 0.02, 5, 2, 3),
		Arr:    xdcr.NewArray(nx, ny, 0.385e-3/2),
		Conv:   conv,
		Window: window,
	}, win)
}

// newI16HarnessFor is newI16Harness over any engine configuration.
func newI16HarnessFor(t testing.TB, cfg Config, win int) *i16KernelHarness {
	t.Helper()
	eng := New(cfg)
	if !eng.i16OK {
		t.Fatalf("%dx%d aperture unexpectedly fails the accumulator bound", cfg.Arr.NX, cfg.Arr.NY)
	}
	for j := range eng.activeWQ {
		if j%2 == 1 {
			eng.activeWQ[j] = -eng.activeWQ[j]
		}
	}
	nE := len(eng.apod)
	nVox := cfg.Vol.Theta.N * cfg.Vol.Phi.N
	return &i16KernelHarness{
		eng:   eng,
		plane: make([]int16, nE*(win+1)),
		tab:   eng.i16GatherTable(win),
		blk:   make(delay.Block16, nVox*nE),
		row:   make([]int32, nVox),
		win:   win,
		rng:   0x1b16<<32 | uint64(nE*131+win),
	}
}

// next is a xorshift64 step: the big-window cases fill 8 M samples, which
// math/rand would dominate.
func (h *i16KernelHarness) next() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

// fillPlane writes random samples everywhere, guard slots included when
// dirtyGuards is set. Real ingest keeps guards zero; a dirty guard makes
// "the clamp routed this index into the guard slot" visible in the sum,
// and both bodies must still read the very same slot.
func (h *i16KernelHarness) fillPlane(dirtyGuards bool) {
	for i := range h.plane {
		h.plane[i] = int16(h.next())
	}
	if !dirtyGuards {
		for d := 0; d < len(h.eng.apod); d++ {
			h.plane[d*(h.win+1)+h.win] = 0
		}
	}
}

// pinPlane sets every sample of every row to ±32767 with the sign of the
// element's weight: each product then adds with the same sign, the worst
// case of the saturation analysis.
func (h *i16KernelHarness) pinPlane() {
	for i := range h.plane {
		h.plane[i] = 32767
	}
	for j, d := range h.eng.activeIdx {
		if h.eng.activeWQ[j] < 0 {
			row := h.plane[int(d)*(h.win+1):][:h.win+1]
			for i := range row {
				row[i] = -32767
			}
		}
	}
}

// fillDelays mixes in-window indices with the edge set: both clamp
// boundaries, the int16 extremes and −1, which the zero-extending clamp
// must route into the guard slot.
func (h *i16KernelHarness) fillDelays() {
	edge := []int16{-32768, -1, 0, int16(h.win - 1), int16(h.win), 32767}
	for i := range h.blk {
		r := h.next()
		if r%3 == 0 {
			h.blk[i] = edge[(r>>8)%uint64(len(edge))]
		} else {
			h.blk[i] = int16((r >> 8) % uint64(h.win))
		}
	}
}

// run drives both kernel bodies over every depth slice and asserts exact
// equality, in store mode and then add mode on top of the stored pass.
func (h *i16KernelHarness) run(t *testing.T, name string, scale float64) {
	t.Helper()
	vol := h.eng.Cfg.Vol
	native := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
	ref := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
	for _, add := range []bool{false, true} {
		for id := 0; id < vol.Depth.N; id++ {
			h.eng.accumulateNappe16I16(h.blk, h.plane, h.tab, id, native, scale, add, h.row)
			h.eng.accumulateNappe16I16Ref(h.blk, h.plane, h.tab, id, ref, scale, add)
		}
		for i := range ref.Data {
			if native.Data[i] != ref.Data[i] {
				t.Fatalf("%s nE=%d win=%d sh=%d (add=%t): native %v != ref %v at voxel %d",
					name, len(h.eng.apod), h.win, h.eng.preShift, add, native.Data[i], ref.Data[i], i)
			}
		}
	}
}

// TestI16KernelNativeMatchesRef is the native/reference bit-identity
// property over the kernel contract's whole grid: every i16Apertures
// shape, Rect and Hann, the smallest, a served and the largest window, and
// the shift at the aperture's own value, 0 and 15.
func TestI16KernelNativeMatchesRef(t *testing.T) {
	for _, window := range []xdcr.Window{xdcr.Rect, xdcr.Hann} {
		for _, sh := range i16Apertures {
			for _, win := range []int{1, 8512, delay.MaxEchoWindow} {
				h := newI16Harness(t, sh.nx, sh.ny, win, window)
				own := h.eng.preShift
				for _, shift := range []uint{own, 0, 15} {
					h.eng.preShift = shift
					h.fillDelays()
					h.fillPlane(false)
					h.run(t, "random", 1.0/32767)
					h.fillPlane(true)
					h.run(t, "dirty-guards", 1.0/32767)
					h.pinPlane()
					h.run(t, "pinned", 1.0)
				}
				h.eng.preShift = own
				for i := range h.blk {
					h.blk[i] = int16(win) // every gather lands in a guard slot
				}
				h.run(t, "all-guard", 1.0)
				clear(h.plane)
				h.run(t, "all-zero", 1.0)
			}
		}
	}
}

// TestI16GatherTableVectorRange pins the split the native body's memory
// safety rests on: the vector range is whole 8-groups, never reaches the
// aperture's last element, carries a zero high half in every weight dword,
// and together with the scalar tail covers every active element once.
func TestI16GatherTableVectorRange(t *testing.T) {
	for _, window := range []xdcr.Window{xdcr.Rect, xdcr.Hann} {
		for _, n := range i16Apertures {
			h := newI16Harness(t, n.nx, n.ny, 9, window)
			tab, nE := h.tab, len(h.eng.apod)
			if tab.nVec != (nE-1)/8*8 {
				t.Fatalf("nE=%d: vector range [0,%d) is not the whole 8-groups short of the last element", nE, tab.nVec)
			}
			for j, el := range tab.els {
				d := int(el.idx)
				if (d < tab.nVec) == (j >= tab.tail) {
					t.Fatalf("nE=%d: active element %d vs vector range %d, but the tail starts at els[%d]", nE, d, tab.nVec, tab.tail)
				}
				if tab.wq[d] != uint32(uint16(int16(el.wq))) || int(tab.ro[d]) != d*(tab.win+1) {
					t.Fatalf("nE=%d element %d: table row (%#x, %d) does not spread the packed operands", nE, d, tab.wq[d], tab.ro[d])
				}
			}
			nonZero := 0
			for _, q := range tab.wq {
				if q>>16 != 0 {
					t.Fatalf("nE=%d: weight dword %#x has a non-zero high half", nE, q)
				}
				if q != 0 {
					nonZero++
				}
			}
			if nonZero > len(tab.els) || len(tab.els) != len(h.eng.activeIdx) {
				t.Fatalf("nE=%d: %d non-zero weights, %d table rows, %d active elements", nE, nonZero, len(tab.els), len(h.eng.activeIdx))
			}
		}
	}
}

// TestI16KernelSaturationExtremes drives the literal worst case of the
// saturation analysis — every sample pinned at ±32767 with its sign
// aligned to its element's quantized weight, so every product adds with
// the same sign — and cross-checks the int32 accumulation against an
// int64 one. If the preShift bound were wrong, the int32 path would wrap
// and diverge from the int64 sum; instead both must agree exactly, and
// the native body must still match the reference bit for bit.
func TestI16KernelSaturationExtremes(t *testing.T) {
	cfg, _, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.02, 3, 1, 2)
	eng := New(cfg) // Hann 16×16: 196 active elements
	if !eng.i16OK {
		t.Fatal("psf aperture unexpectedly fails the accumulator bound")
	}
	win := 9
	nE := len(eng.apod)
	plane := make([]int16, nE*(win+1))
	tab := eng.i16GatherTable(win)
	var acc64 int64
	for j, d := range eng.activeIdx {
		s := int16(32767)
		if eng.activeWQ[j] < 0 {
			s = -32767
		}
		// The whole row carries the extreme, so any index hits it.
		for i := 0; i < win; i++ {
			plane[int(d)*(win+1)+i] = s
		}
		acc64 += int64(int32(s) * int32(eng.activeWQ[j]) >> eng.preShift)
	}
	if acc64 > i16AccBound || acc64 < math.MinInt32 {
		t.Fatalf("worst-case sum %d escapes the documented bound %d", acc64, int64(i16AccBound))
	}
	blk := make(delay.Block16, cfg.Vol.Theta.N*cfg.Vol.Phi.N*nE) // all index 0
	row := make([]int32, cfg.Vol.Theta.N*cfg.Vol.Phi.N)
	native := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	ref := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		eng.accumulateNappe16I16(blk, plane, tab, id, native, 1.0, false, row)
		eng.accumulateNappe16I16Ref(blk, plane, tab, id, ref, 1.0, false)
	}
	for i := range ref.Data {
		if ref.Data[i] != float64(acc64) {
			t.Fatalf("voxel %d: int32 path %v != int64 cross-check %d (accumulator wrapped?)",
				i, ref.Data[i], acc64)
		}
		if native.Data[i] != ref.Data[i] {
			t.Fatalf("voxel %d: native %v != ref %v at saturation", i, native.Data[i], ref.Data[i])
		}
	}
}

// TestI16AccumulatorBoundDemotion pins the initI16 escape hatch: an
// aperture whose worst-case sum cannot fit the int32 bound even at the
// maximum shift must set i16OK false (the session then demotes to the
// exact float64 kernel), while every real test aperture fits.
func TestI16AccumulatorBoundDemotion(t *testing.T) {
	huge := &Engine{activeW: make([]float64, 40000)}
	for i := range huge.activeW {
		huge.activeW[i] = 1
	}
	huge.initI16()
	if huge.i16OK {
		t.Error("40000-element unit aperture cannot satisfy the bound, but i16OK is set")
	}
	cfg, _, _ := psfSetup(t)
	eng := New(cfg)
	if !eng.i16OK || eng.preShift > 15 {
		t.Errorf("Table-I-shaped aperture: i16OK=%t preShift=%d", eng.i16OK, eng.preShift)
	}
	worst := int64(0)
	for _, q := range eng.activeWQ {
		a := int64(q)
		if a < 0 {
			a = -a
		}
		worst += a * 32767
	}
	if worst>>eng.preShift > i16AccBound {
		t.Errorf("preShift %d leaves worst case %d above the bound", eng.preShift, worst>>eng.preShift)
	}
	if eng.preShift > 0 && worst>>(eng.preShift-1) <= i16AccBound {
		t.Errorf("preShift %d is not minimal", eng.preShift)
	}
}

// TestPrecisionInt16PSNRGate gates the ADC-native datapath end to end:
// the fixed-point session volume must sit at least 60 dB below the
// float64 golden peak — the same acceptance bar the float32 kernel
// cleared, now with 2-byte echo samples.
func TestPrecisionInt16PSNRGate(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	golden, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	c16 := cfg
	c16.Precision = PrecisionInt16
	eng := New(c16)
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fixed, err := sess.Beamform(bufs)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PeakSignalRatio(golden, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 60 {
		t.Errorf("i16 kernel PSNR = %.1f dB, want ≥ 60", psnr)
	}
	sim, err := Similarity(golden, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if sim < 0.999999 {
		t.Errorf("i16 kernel similarity = %v", sim)
	}
}

// TestPrecisionInt16CompoundPSNR extends the gate to compounding: an
// N-transmit fixed-point compound must reconstruct the float64 compound
// above 60 dB (each transmit quantizes with its own frame scale).
func TestPrecisionInt16CompoundPSNR(t *testing.T) {
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	txs := delay.SteeredTransmits(3, 0.004, 0.004)
	provs, txBufs := compoundSetup(t, cfg, txs, target)
	goldenSess, err := New(cfg).NewSessionProviders(provs)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := goldenSess.BeamformCompound(txBufs)
	goldenSess.Close()
	if err != nil {
		t.Fatal(err)
	}
	c16 := cfg
	c16.Precision = PrecisionInt16
	sess, err := New(c16).NewSessionProviders(provs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fixed, err := sess.BeamformCompound(txBufs)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PeakSignalRatio(golden, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 60 {
		t.Errorf("i16 compound PSNR = %.1f dB, want ≥ 60", psnr)
	}
}

// framePlanesI16 flattens single-transmit frames through rf.PlaneI16 —
// the same quantization contract the session's convert phase applies.
func framePlanesI16(t *testing.T, frames [][]rf.EchoBuffer, win int) ([][][]int16, [][]float32) {
	t.Helper()
	planes := make([][][]int16, len(frames))
	scales := make([][]float32, len(frames))
	for k, f := range frames {
		p, scale, err := rf.PlaneI16(f, win)
		if err != nil {
			t.Fatal(err)
		}
		planes[k] = [][]int16{p}
		scales[k] = []float32{scale}
	}
	return planes, scales
}

// TestBatchPlanesI16MatchesBufferBatch is the zero-conversion ingest
// contract: an i16 plane batch (quantized by rf.PlaneI16, the layout
// wire.DecodePlaneI16 streams into) must produce exactly the volumes of a
// buffer batch over the same samples — bit-identical, because the convert
// phase applies the very same quantization before the same kernel — at
// every cache budget, interleaved with buffer batches on one session.
func TestBatchPlanesI16MatchesBufferBatch(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 30)
	cfg.Precision = PrecisionInt16
	frames := scaledFrames(bufs, 4)
	win := len(bufs[0].Samples)
	planes, scales := framePlanesI16(t, frames, win)

	for _, budget := range []int64{-2, -1, 0} {
		eng := New(cfg)
		refSess := batchSession(t, eng, cfg, budget)
		refs := make([]*Volume, len(frames))
		for k, f := range frames {
			v, err := refSess.Beamform(f)
			if err != nil {
				t.Fatal(err)
			}
			refs[k] = v
		}
		refSess.Close()

		sess := batchSession(t, eng, cfg, budget)
		check := func(dsts []*Volume, ks ...int) {
			t.Helper()
			for i, k := range ks {
				for j := range refs[k].Data {
					if refs[k].Data[j] != dsts[i].Data[j] {
						t.Fatalf("budget %d: i16 plane frame %d differs from buffer path at %d: %v vs %v",
							budget, k, j, dsts[i].Data[j], refs[k].Data[j])
					}
				}
			}
		}
		planeBatch := func(ks ...int) {
			t.Helper()
			dsts := make([]*Volume, len(ks))
			sub := make([][][]int16, len(ks))
			sc := make([][]float32, len(ks))
			for i, k := range ks {
				dsts[i] = sess.NewVolume()
				sub[i] = planes[k]
				sc[i] = scales[k]
			}
			if err := sess.BeamformBatchPlanesI16(dsts, win, sub, sc); err != nil {
				t.Fatal(err)
			}
			check(dsts, ks...)
		}
		planeBatch(0, 1)
		planeBatch(2, 3, 0)
		// Interleave a buffer batch: the convert phase must re-quantize
		// into its own plane without disturbing the external-plane state.
		dst := sess.NewVolume()
		if err := sess.BeamformBatch([]*Volume{dst}, [][][]rf.EchoBuffer{{frames[1]}}); err != nil {
			t.Fatal(err)
		}
		check([]*Volume{dst}, 1)
		planeBatch(3)
		if got := sess.Frames(); got != 7 {
			t.Errorf("budget %d: Frames = %d, want 7", budget, got)
		}
		sess.Close()
	}
}

// TestBatchPlanesI16Validation pins the i16 plane-batch error surface,
// including the NaN-pinned and non-finite scales the wire header could
// in principle carry.
func TestBatchPlanesI16Validation(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 16)
	win := len(bufs[0].Samples)
	plane, scale, err := rf.PlaneI16(bufs, win)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("needs_i16", func(t *testing.T) {
		c := cfg
		c.Precision = PrecisionFloat32
		sess := batchSession(t, New(c), c, -1)
		defer sess.Close()
		err := sess.BeamformBatchPlanesI16([]*Volume{sess.NewVolume()}, win,
			[][][]int16{{plane}}, [][]float32{{scale}})
		if err == nil || !strings.Contains(err.Error(), "i16") {
			t.Fatalf("float32 session accepted an i16 plane batch: %v", err)
		}
	})

	c := cfg
	c.Precision = PrecisionInt16
	sess := batchSession(t, New(c), c, -1)
	defer sess.Close()
	one := func(win int, planes [][][]int16, scales [][]float32, dsts ...*Volume) error {
		if dsts == nil {
			dsts = []*Volume{sess.NewVolume()}
		}
		return sess.BeamformBatchPlanesI16(dsts, win, planes, scales)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero_window", func() error {
			return one(0, [][][]int16{{plane}}, [][]float32{{scale}})
		}},
		{"window_over_max", func() error {
			return one(delay.MaxEchoWindow+1, [][][]int16{{plane}}, [][]float32{{scale}})
		}},
		{"empty_batch", func() error {
			return sess.BeamformBatchPlanesI16(nil, win, nil, nil)
		}},
		{"transmit_count", func() error {
			return one(win, [][][]int16{{plane, plane}}, [][]float32{{scale, scale}})
		}},
		{"scale_arity", func() error {
			return one(win, [][][]int16{{plane}}, [][]float32{{scale, scale}})
		}},
		{"short_plane", func() error {
			return one(win, [][][]int16{{plane[:10]}}, [][]float32{{scale}})
		}},
		{"zero_scale", func() error {
			return one(win, [][][]int16{{plane}}, [][]float32{{0}})
		}},
		{"negative_scale", func() error {
			return one(win, [][][]int16{{plane}}, [][]float32{{-1}})
		}},
		{"nan_scale", func() error {
			return one(win, [][][]int16{{plane}}, [][]float32{{float32(math.NaN())}})
		}},
		{"inf_scale", func() error {
			return one(win, [][][]int16{{plane}}, [][]float32{{float32(math.Inf(1))}})
		}},
		{"shared_dst", func() error {
			d := sess.NewVolume()
			return sess.BeamformBatchPlanesI16([]*Volume{d, d}, win,
				[][][]int16{{plane}, {plane}}, [][]float32{{scale}, {scale}})
		}},
		{"nil_dst", func() error {
			return sess.BeamformBatchPlanesI16([]*Volume{nil}, win,
				[][][]int16{{plane}}, [][]float32{{scale}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err == nil {
				t.Fatal("invalid i16 plane batch accepted")
			}
		})
	}
}

// TestOneRoundDispatchBitIdentical pins the fused-dispatch equivalence:
// forcing the one-round jobConvertAccumulate shape and forcing the legacy
// two-round shape must produce bit-identical volumes — the in-pool
// barrier preserves the convert-before-accumulate order exactly — for
// both convert-bearing kernels.
func TestOneRoundDispatchBitIdentical(t *testing.T) {
	defer SetOneRoundDispatchVoxels(-1)
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 30)
	frames := scaledFrames(bufs, 3)
	for _, prec := range []Precision{PrecisionFloat32, PrecisionInt16} {
		c := cfg
		c.Precision = prec
		eng := New(c)
		results := map[int][]*Volume{}
		for _, threshold := range []int{0, 1 << 30} { // two rounds, fused
			SetOneRoundDispatchVoxels(threshold)
			sess := batchSession(t, eng, c, -1)
			dsts := make([]*Volume, len(frames))
			batch := make([][][]rf.EchoBuffer, len(frames))
			for k, f := range frames {
				dsts[k] = sess.NewVolume()
				batch[k] = [][]rf.EchoBuffer{f}
			}
			if err := sess.BeamformBatch(dsts, batch); err != nil {
				t.Fatal(err)
			}
			sess.Close()
			results[threshold] = dsts
		}
		for k := range frames {
			a, b := results[0][k], results[1<<30][k]
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("%v frame %d: two-round %v != fused %v at voxel %d",
						prec, k, a.Data[i], b.Data[i], i)
				}
			}
		}
	}
}

// TestSessionInt16SteadyStateAllocFree extends the alloc-free criterion
// to the fixed-point path: once the int16 plane exists and blocks are
// resident, i16 frames allocate nothing.
func TestSessionInt16SteadyStateAllocFree(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 16)
	cfg.Precision = PrecisionInt16
	eng := New(cfg)
	src := newRetainingSource16(exactProvider(cfg))
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		src.Nappe16(id)
	}
	sess, err := eng.NewSession(src)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	if err := sess.BeamformInto(out, bufs); err != nil { // warm: sizes plane
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := sess.BeamformInto(out, bufs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("steady-state i16 BeamformInto allocates %.1f objects/frame, want 0", avg)
	}
}

// TestBatchPlanesI16SteadyStateAllocFree holds the plane-ingest entry to
// the same criterion: once the window's operand table exists, an i16 plane
// batch over resident blocks allocates nothing — the native body's int32
// row belongs to the worker, not to the call.
func TestBatchPlanesI16SteadyStateAllocFree(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 16)
	cfg.Precision = PrecisionInt16
	src := newRetainingSource16(exactProvider(cfg))
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		src.Nappe16(id)
	}
	sess, err := New(cfg).NewSession(src)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	win := len(bufs[0].Samples)
	planes, scales := framePlanesI16(t, [][]rf.EchoBuffer{bufs}, win)
	dsts := []*Volume{sess.NewVolume()}
	run := func() {
		if err := sess.BeamformBatchPlanesI16(dsts, win, planes, scales); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: builds the operand table
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Errorf("steady-state BeamformBatchPlanesI16 allocates %.1f objects/batch, want 0", avg)
	}
}

// TestI16ConcurrentSessions runs several fixed-point sessions of one
// engine at once (each with its own worker pool, all reading the engine's
// weight tables) and holds every volume to a sequentially computed one.
// Under -race this is the proof that the kernel's only shared state is
// read-only.
func TestI16ConcurrentSessions(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 24)
	cfg.Precision = PrecisionInt16
	cfg.Workers = 2
	eng := New(cfg)
	frames := scaledFrames(bufs, 3)
	want := make([]*Volume, len(frames))
	ref, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range frames {
		if want[k], err = ref.Beamform(f); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := eng.NewSession(exactProvider(cfg))
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			out := sess.NewVolume()
			for round := 0; round < 3; round++ {
				for k, f := range frames {
					if err := sess.BeamformInto(out, f); err != nil {
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
}
