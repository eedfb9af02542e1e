// Tests of the fixed-point i16 kernel beside the conformance matrix
// (conformance_test.go): its operand table and tile walk, the accumulator
// bound and its int64 cross-check, the PSNR gates, the plane-batch ingest
// and its error surface, alloc-freedom and concurrent sessions.
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
	if body != "avx512" && body != "avx2" && body != "ref" {
		t.Fatalf("unknown i16 kernel body %q", body)
	}
	t.Logf("i16 accumulate body: %s", body)
}

// TestI16NoAVX2Route is the i16 session row of the matrix with both probes
// cleared — the route an amd64 host without AVX2 takes — and on the host's
// route: a 3-transmit compound (store on transmit 0, add on 1 and 2) as a
// buffer batch and as a plane batch, both == the twin.
func TestI16NoAVX2Route(t *testing.T) { sessionRows(t, "i16", "ref", "host") }

// TestI16NoAVX512Route is the same row with only the AVX-512 probe cleared:
// the AVX2 gather body an AVX2-only host runs.
func TestI16NoAVX512Route(t *testing.T) { sessionRows(t, "i16", "avx2") }

// TestSnakeTiles pins the tile walk: each plane voxel once, consecutive
// voxels neighbours in θ or φ, a partial last tile padded with its last
// voxel, and the plane's last voxel as the list's last entry.
func TestSnakeTiles(t *testing.T) {
	for _, pl := range []struct{ nth, nphi int }{{0, 0}, {1, 1}, {1, 17}, {5, 2}, {4, 4}, {7, 3}, {2, 9}, {33, 33}} {
		n := pl.nth * pl.nphi
		tiles := snakeTiles(pl.nth, pl.nphi)
		if len(tiles) != (n+15)/16*16 {
			t.Fatalf("%d×%d: %d entries, want %d", pl.nth, pl.nphi, len(tiles), (n+15)/16*16)
		}
		seen := make([]bool, n)
		for i, v := range tiles[:n] {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("%d×%d: entry %d = %d is outside the plane or repeated", pl.nth, pl.nphi, i, v)
			}
			seen[v] = true
			if i > 0 {
				p := tiles[i-1]
				dth, dph := int(v)/pl.nphi-int(p)/pl.nphi, int(v)%pl.nphi-int(p)%pl.nphi
				if dth*dth+dph*dph != 1 {
					t.Fatalf("%d×%d: voxels %d and %d are consecutive in the walk but not neighbours", pl.nth, pl.nphi, p, v)
				}
			}
		}
		for _, v := range tiles[n:] {
			if v != tiles[n-1] {
				t.Fatalf("%d×%d: padding entry %d does not repeat the last voxel %d", pl.nth, pl.nphi, v, tiles[n-1])
			}
		}
		if n > 0 && int(tiles[len(tiles)-1]) != n-1 {
			t.Fatalf("%d×%d: walk ends on %d, not the last voxel %d", pl.nth, pl.nphi, tiles[len(tiles)-1], n-1)
		}
	}
}

// TestI16GatherTableVectorRange pins the split the AVX2 body's memory
// safety rests on: the vector range is whole 8-groups, never reaches the
// aperture's last element, carries a zero high half in every weight dword,
// and together with the scalar tail covers every active element once. It
// also pins the tile body's group masks, pair weights and padded row
// offsets.
func TestI16GatherTableVectorRange(t *testing.T) {
	var b builder
	for _, hann := range []bool{false, true} {
		for _, n := range i16Apertures {
			h := b.build(t, kshape{NX: n[0], NY: n[1], Hann: hann, NTh: 5, NPh: 2, NDep: 3, Win: 9, Shift: -1})
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
			// The tile body's view: one apodization bit per element, none
			// at or past nE, the pair weights in their lanes, and row
			// offsets readable to the end of the last group.
			nG := (nE + 15) / 16
			if len(tab.grp) != nG || len(tab.wpair) != nG*128 || cap(tab.ro) < nG*16 {
				t.Fatalf("nE=%d: %d group masks, %d pair weights, ro capacity %d", nE, len(tab.grp), len(tab.wpair), cap(tab.ro))
			}
			if want := uint16(1<<(nE-(nG-1)*16) - 1); tab.lastLen != want {
				t.Fatalf("nE=%d: last group mask %#x, want %#x", nE, tab.lastLen, want)
			}
			for d := 0; d < nG*16; d++ {
				apod := d < nE && h.eng.apod[d] != 0
				if got := tab.grp[d/16]>>(d%16)&1 == 1; got != apod {
					t.Fatalf("nE=%d element %d: group bit %t, apodized %t", nE, d, got, apod)
				}
				if d >= nE && tab.ro[:nG*16][d] != 0 {
					t.Fatalf("nE=%d: row offset %d past the aperture is %d", nE, d, tab.ro[:nG*16][d])
				}
				var w uint32
				if d < nE {
					w = tab.wq[d]
				}
				pair := tab.wpair[(d/16*8+d%8)*16:][:16]
				for l := d % 16 / 8 * 4; l < 16; l += 8 {
					for _, got := range pair[l : l+4] {
						if got != w {
							t.Fatalf("nE=%d element %d: pair weight %#x, want %#x", nE, d, got, w)
						}
					}
				}
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
// float64 golden peak, with 2-byte echo samples.
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
		c.Precision = PrecisionFloat64
		sess := batchSession(t, New(c), c, -1)
		defer sess.Close()
		err := sess.BeamformBatchPlanesI16([]*Volume{sess.NewVolume()}, win,
			[][][]int16{{plane}}, [][]float32{{scale}})
		if err == nil || !strings.Contains(err.Error(), "i16") {
			t.Fatalf("float64 session accepted an i16 plane batch: %v", err)
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
		{"dst_count", func() error {
			return sess.BeamformBatchPlanesI16([]*Volume{sess.NewVolume()}, win,
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

// TestSessionInt16SteadyStateAllocFree extends the alloc-free criterion
// to the fixed-point path: once the int16 plane exists and blocks are
// resident, i16 frames allocate nothing.
func TestSessionInt16SteadyStateAllocFree(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 16)
	cfg.Precision = PrecisionInt16
	eng := New(cfg)
	cache := fullCache(t, exactProvider(cfg), cfg.Vol.Depth.N)
	cache.Warm()
	sess := cachedSession(t, eng, cache)
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
	cache := fullCache(t, exactProvider(cfg), cfg.Vol.Depth.N)
	cache.Warm()
	sess := cachedSession(t, New(cfg), cache)
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

// TestPlaneFitRuleIsPerPlane: the i16 kernel's int32 row offsets index one
// frame×transmit plane at a time, so whether a frame fits is decided per
// plane, from its Shape, in either form. A 16-transmit, 10,000-element,
// window-32,767 compound (5.2 G samples across its planes, 328 M per
// plane) runs the i16 kernel as buffers exactly as it does as planes. The
// buffer form shares one backing window across all 160,000 echo buffers:
// the shape reads only lengths.
func TestPlaneFitRuleIsPerPlane(t *testing.T) {
	const nTx, win = 16, delay.MaxEchoWindow
	eng := New(Config{Arr: xdcr.NewArray(100, 100, 0.385e-3/2), Window: xdcr.Hann, Precision: PrecisionInt16})
	if !eng.I16Capable() {
		t.Fatal("a 100×100 Hann aperture should meet the int32 accumulator bound")
	}
	elems := eng.Cfg.Arr.Elements()
	samples := make([]float64, win)
	bufs := make([]rf.EchoBuffer, nTx*elems)
	for i := range bufs {
		bufs[i].Samples = samples
	}
	tx := make([][]rf.EchoBuffer, nTx)
	for t := range tx {
		tx[t] = bufs[t*elems : (t+1)*elems]
	}
	bufShape := Frame{Bufs: tx}.Shape()
	if want := (Shape{Transmits: nTx, Elements: elems, Win: win, Uniform: true}); bufShape != want {
		t.Fatalf("buffer shape %+v, want %+v", bufShape, want)
	}
	// The plane form of the same frame differs only in its form flag (a
	// plane frame's Shape reads Elements off len(Planes[0])/(Win+1); 655 MB
	// of plane is not built here).
	planeShape := bufShape
	planeShape.Planes = true
	small := Frame{Planes: [][]int16{make([]int16, 4*(7+1))}, Scales: []float32{1}, Win: 7}
	if got, want := small.Shape(), (Shape{Transmits: 1, Elements: 4, Win: 7, Uniform: true, Planes: true}); got != want {
		t.Fatalf("plane shape %+v, want %+v", got, want)
	}
	bn, bi := eng.datapath(bufShape)
	pn, pi := eng.datapath(planeShape)
	if !bn || !bi || !pn || !pi {
		t.Errorf("buffers pick narrow=%v i16=%v, planes narrow=%v i16=%v; want the i16 kernel for both", bn, bi, pn, pi)
	}
}
