package beamform

import (
	"math"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// retainingSource16 retains every narrow block — the in-package stand-in
// for delaycache.Cache's narrow fast path. Session workers call Nappe16
// concurrently, so the map is mutex-guarded like retainingSource's.
type retainingSource16 struct {
	delay.BlockProvider16
	mu     sync.Mutex
	blocks map[int]delay.Block16
}

func newRetainingSource16(bp delay.BlockProvider16) *retainingSource16 {
	return &retainingSource16{BlockProvider16: bp, blocks: map[int]delay.Block16{}}
}

func (r *retainingSource16) Nappe16(id int) delay.Block16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if blk, ok := r.blocks[id]; ok {
		return blk
	}
	blk := make(delay.Block16, r.Layout().BlockLen())
	r.FillNappe16(id, blk)
	r.blocks[id] = blk
	return blk
}

// TestPrecisionFloat64BitIdentical pins the tentpole's exactness claim:
// the default narrow-delay session — int16 blocks filled natively, via
// quantization, or served resident from a NappeSource16 — reproduces the
// scalar float64 reference bit for bit.
func TestPrecisionFloat64BitIdentical(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	eng := New(cfg)
	p := exactProvider(cfg)
	ref, err := eng.BeamformScalar(p, bufs)
	if err != nil {
		t.Fatal(err)
	}
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	providers := map[string]delay.Provider{
		"native16":   p,
		"quantized":  &wideOnlyProvider{delay.AsBlock(p, layout)},
		"resident16": newRetainingSource16(p),
	}
	for name, prov := range providers {
		sess, err := eng.NewSession(prov)
		if err != nil {
			t.Fatal(err)
		}
		for frame := 0; frame < 2; frame++ {
			vol, err := sess.Beamform(bufs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Data {
				if ref.Data[i] != vol.Data[i] {
					t.Fatalf("%s frame %d differs at %d: %v vs %v",
						name, frame, i, vol.Data[i], ref.Data[i])
				}
			}
		}
		sess.Close()
	}
}

// wideOnlyProvider hides the BlockProvider16 fast path, forcing the
// session's quantize-through-scratch branch.
type wideOnlyProvider struct {
	delay.BlockProvider
}

// TestPrecisionFloat32PSNRGate gates the narrow echo path: the float32
// kernel's volume must sit at least 60 dB below the float64 golden peak —
// the acceptance threshold for trading echo precision for bandwidth.
func TestPrecisionFloat32PSNRGate(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	golden, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := cfg
	cfg32.Precision = PrecisionFloat32
	eng := New(cfg32)
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	narrow, err := sess.Beamform(bufs)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PeakSignalRatio(golden, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 60 {
		t.Errorf("float32 kernel PSNR = %.1f dB, want ≥ 60", psnr)
	}
	sim, err := Similarity(golden, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if sim < 0.999999 {
		t.Errorf("float32 kernel similarity = %v", sim)
	}
}

// TestPrecisionWideMatchesGolden pins the A/B baseline: PrecisionWide
// (float64 blocks end to end, the PR-2 datapath) is bit-identical to the
// default narrow-delay golden path.
func TestPrecisionWideMatchesGolden(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	golden, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	wideCfg := cfg
	wideCfg.Precision = PrecisionWide
	wide, err := New(wideCfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range golden.Data {
		if golden.Data[i] != wide.Data[i] {
			t.Fatalf("wide differs at %d: %v vs %v", i, wide.Data[i], golden.Data[i])
		}
	}
}

// TestHugeEchoWindowFallsBackWide: a window beyond delay.MaxEchoWindow
// defeats int16 indexing, so the session must demote to the float64 block
// datapath — at every precision — and still match the scalar reference.
func TestHugeEchoWindowFallsBackWide(t *testing.T) {
	cfg, _, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 12)
	cfg.Arr.NX, cfg.Arr.NY = 4, 4
	bufs, err := rf.Synthesize(rf.Config{
		Arr: cfg.Arr, Conv: cfg.Conv, Pulse: rf.NewPulse(4e6, 4e6),
		BufSamples: delay.MaxEchoWindow + 100,
	}, rf.PointPhantom(geom.Vec3{Z: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32, PrecisionWide, PrecisionInt16} {
		c := cfg
		c.Precision = prec
		eng := New(c)
		ref, err := eng.BeamformScalar(exactProvider(c), bufs)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.NewSession(exactProvider(c))
		if err != nil {
			t.Fatal(err)
		}
		vol, err := sess.Beamform(bufs)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Data {
			if ref.Data[i] != vol.Data[i] {
				t.Fatalf("%v: differs at %d", prec, i)
			}
		}
	}
}

// TestNonUniformWindowsDemoteFloat32: float32 flattening needs one stride;
// ragged buffer lengths must demote that frame to the float64 echo kernel
// (still exact) rather than misindex.
func TestNonUniformWindowsDemoteFloat32(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 12)
	// Truncate one buffer: lengths are no longer uniform.
	ragged := make([]rf.EchoBuffer, len(bufs))
	copy(ragged, bufs)
	ragged[3] = rf.EchoBuffer{Samples: bufs[3].Samples[:len(bufs[3].Samples)-7]}
	c := cfg
	c.Precision = PrecisionFloat32
	eng := New(c)
	ref, err := eng.BeamformScalar(exactProvider(c), ragged)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(exactProvider(c))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	vol, err := sess.Beamform(ragged)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if ref.Data[i] != vol.Data[i] {
			t.Fatalf("ragged frame differs at %d: %v vs %v", i, vol.Data[i], ref.Data[i])
		}
	}
}

// TestUnrolledKernelMatchesScalarNarrow property-tests the 4-way unrolled
// kernel against its one-accumulator reference on identical inputs: the
// sums differ only by float32 association, so agreement must be at
// float32 round-off scale relative to the voxel magnitude.
func TestUnrolledKernelMatchesScalarNarrow(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 7, 3, 20)
	eng := New(cfg)
	p := exactProvider(cfg)
	l := p.Layout()
	blk := make(delay.Block16, l.BlockLen())
	win := len(bufs[0].Samples)
	flat := make([]float32, len(bufs)*(win+1))
	for d, b := range bufs {
		row := flat[d*(win+1) : d*(win+1)+win]
		for i, v := range b.Samples {
			row[i] = float32(v)
		}
	}
	rowOff := make([]int32, len(eng.activeIdx))
	for j, d := range eng.activeIdx {
		rowOff[j] = d * int32(win+1)
	}
	unrolled := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	scalar := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	var peak float64
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		p.FillNappe16(id, blk)
		eng.accumulateNappe16Narrow(blk, flat, rowOff, win, id, unrolled, false)
		eng.accumulateNappe16NarrowScalar(blk, flat, rowOff, win, id, scalar, false)
	}
	for i := range scalar.Data {
		if v := math.Abs(scalar.Data[i]); v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Fatal("degenerate scene")
	}
	for i := range scalar.Data {
		if diff := math.Abs(unrolled.Data[i] - scalar.Data[i]); diff > 1e-4*peak {
			t.Fatalf("voxel %d: unrolled %v vs scalar %v (diff %v, peak %v)",
				i, unrolled.Data[i], scalar.Data[i], diff, peak)
		}
	}
}

// TestNarrowKernelMasksOutOfWindow drives delays far outside the echo
// window through the narrow kernel: saturated and clamped indices must
// read exact silence, like EchoBuffer.At.
func TestNarrowKernelMasksOutOfWindow(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 8)
	c := cfg
	c.Precision = PrecisionFloat32
	eng := New(c)
	// An origin displaced 10 m away pushes every delay beyond any buffer.
	far := delay.NewExact(c.Vol, c.Arr, geom.Vec3{Z: -10}, c.Conv)
	sess, err := eng.NewSession(far)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	vol, err := sess.Beamform(bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vol.Data {
		if v != 0 {
			t.Fatalf("out-of-window voxel %d = %v, want exact silence", i, v)
		}
	}
}

// TestSessionFloat32SteadyStateAllocFree extends the ISSUE 2 criterion to
// the narrow path: once the flattened echo plane exists and blocks are
// resident, float32 frames allocate nothing.
func TestSessionFloat32SteadyStateAllocFree(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 16)
	cfg.Precision = PrecisionFloat32
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
	if err := sess.BeamformInto(out, bufs); err != nil { // warm: sizes flat
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := sess.BeamformInto(out, bufs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("steady-state float32 BeamformInto allocates %.1f objects/frame, want 0", avg)
	}
}

// TestParsePrecision covers the CLI parser and the String round trip.
func TestParsePrecision(t *testing.T) {
	cases := map[string]Precision{
		"float64": PrecisionFloat64, "f64": PrecisionFloat64,
		"float32": PrecisionFloat32, "f32": PrecisionFloat32, "narrow": PrecisionFloat32,
		"wide": PrecisionWide,
		"i16":  PrecisionInt16, "int16": PrecisionInt16,
	}
	for name, want := range cases {
		got, err := ParsePrecision(name)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePrecision("float16"); err == nil {
		t.Error("unknown precision must fail")
	}
	for _, p := range []Precision{PrecisionFloat64, PrecisionFloat32, PrecisionWide, PrecisionInt16} {
		if p.String() == "" {
			t.Errorf("Precision(%d).String empty", p)
		}
	}
	if (Precision(99)).String() == "" {
		t.Error("unknown precision String empty")
	}
}

// retainingBoth retains wide blocks only (Nappe16 always misses) while
// advertising both source interfaces — the delaycache Wide-mode shape.
type retainingBoth struct {
	*retainingSource
}

func (r retainingBoth) Nappe16(int) delay.Block16 { return nil }

// TestWideResidencyServesNarrowSession: a provider retaining only float64
// blocks (delaycache in Wide A/B mode) must still serve a narrow-precision
// session from residency — quantized, exact — not regenerate per frame.
func TestWideResidencyServesNarrowSession(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.03, 5, 1, 10)
	eng := New(cfg)
	p := exactProvider(cfg)
	ref, err := eng.BeamformScalar(p, bufs)
	if err != nil {
		t.Fatal(err)
	}
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	counted := &countingBlock{BlockProvider: delay.AsBlock(p, layout)}
	src := retainingBoth{newRetainingSource(counted)}
	for id := 0; id < cfg.Vol.Depth.N; id++ { // warm the wide blocks
		src.Nappe(id)
	}
	warm := counted.calls.Load()
	sess, err := eng.NewSession(src)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	vol, err := sess.Beamform(bufs)
	if err != nil {
		t.Fatal(err)
	}
	if calls := counted.calls.Load(); calls != warm {
		t.Errorf("narrow session regenerated %d blocks despite wide residency", calls-warm)
	}
	for i := range ref.Data {
		if ref.Data[i] != vol.Data[i] {
			t.Fatalf("quantized-residency frame differs at %d", i)
		}
	}
}
