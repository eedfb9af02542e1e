package beamform

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/tablesteer"
	"ultrabeam/internal/xdcr"
)

var conv = delay.Converter{C: 1540, Fs: 32e6}

// psfSetup builds a 2-D-ish imaging scenario (single φ plane) with a point
// scatterer on axis at 20 mm.
func psfSetup(t testing.TB) (Config, []rf.EchoBuffer, geom.Vec3) {
	t.Helper()
	cfg := Config{
		Vol:    scan.NewVolume(geom.Radians(40), 0, 0.03, 41, 1, 240),
		Arr:    xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv:   conv,
		Window: xdcr.Hann,
	}
	target := geom.Vec3{Z: 0.02}
	bufs, err := rf.Synthesize(rf.Config{
		Arr: cfg.Arr, Conv: conv, Pulse: rf.NewPulse(4e6, 4e6),
		BufSamples: 1400,
	}, rf.PointPhantom(target))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, bufs, target
}

func exactProvider(cfg Config) *delay.Exact {
	return delay.NewExact(cfg.Vol, cfg.Arr, geom.Vec3{}, cfg.Conv)
}

func TestBeamformFocusesOnScatterer(t *testing.T) {
	cfg, bufs, target := psfSetup(t)
	vol, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasurePSF(vol, conv, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	// Peak must sit on the scatterer: θ index 20 (center), depth ≈ 20 mm.
	if m.PeakIndex.Theta != 20 {
		t.Errorf("peak θ index = %d, want 20 (on axis)", m.PeakIndex.Theta)
	}
	peakDepth := cfg.Vol.Depth.At(m.PeakIndex.Depth)
	if math.Abs(peakDepth-target.Z) > 0.0005 {
		t.Errorf("peak depth = %.4f m, want %.4f", peakDepth, target.Z)
	}
	// Resolution sanity: axial FWHM of a 100%-bandwidth 4 MHz pulse is a
	// fraction of a millimeter; lateral FWHM ≈ λ/d·depth ≈ a few degrees.
	if m.AxialFWHMmm <= 0.05 || m.AxialFWHMmm > 2 {
		t.Errorf("axial FWHM = %.3f mm", m.AxialFWHMmm)
	}
	// Receive-only focusing with a 7.5λ Hann-weighted aperture: ≈15°.
	if m.LateralFWHMdeg <= 0.2 || m.LateralFWHMdeg > 20 {
		t.Errorf("lateral FWHM = %.2f°", m.LateralFWHMdeg)
	}
}

func TestBeamformApodizationLowersSidelobes(t *testing.T) {
	// Apodization sidelobe suppression is a narrowband (array-pattern)
	// phenomenon: with a broadband pulse the off-peak response is
	// incoherent pulse haze, where smaller effective apertures lose.
	// Use a 20%-bandwidth pulse and a 15.5λ aperture so the classic
	// pattern comparison applies.
	cfg := Config{
		Vol:    scan.NewVolume(geom.Radians(40), 0, 0.025, 41, 1, 150),
		Arr:    xdcr.NewArray(32, 32, 0.385e-3/2),
		Conv:   conv,
		Window: xdcr.Hann,
	}
	bufs, err := rf.Synthesize(rf.Config{
		Arr: cfg.Arr, Conv: conv, Pulse: rf.NewPulse(4e6, 0.8e6),
		BufSamples: 3600,
	}, rf.PointPhantom(geom.Vec3{Z: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	rectCfg := cfg
	rectCfg.Window = xdcr.Rect
	rect, err := New(rectCfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	hann, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	// Sidelobe level relative to each pattern's own first null: walk
	// outward from the peak until the |profile| turns back up, then take
	// the max beyond that point (the standard apples-to-apples comparison,
	// since Hann's mainlobe is intentionally wider).
	sidelobe := func(v *Volume) float64 {
		m, err := MeasurePSF(v, conv, 4e6)
		if err != nil {
			t.Fatal(err)
		}
		lat := v.LateralProfile(m.PeakIndex.Phi, m.PeakIndex.Depth)
		for i := range lat {
			lat[i] = math.Abs(lat[i])
		}
		worst := 0.0
		for _, dir := range []int{-1, +1} {
			i := m.PeakIndex.Theta
			for i+dir >= 0 && i+dir < len(lat) && lat[i+dir] <= lat[i] {
				i += dir // descend the mainlobe to the first null
			}
			for ; i >= 0 && i < len(lat); i += dir {
				if lat[i] > worst {
					worst = lat[i]
				}
			}
		}
		return worst / m.PeakValue
	}
	sh, sr := sidelobe(hann), sidelobe(rect)
	if sh >= sr {
		t.Errorf("hann sidelobes (%v) should beat rect (%v)", sh, sr)
	}
	t.Logf("sidelobes beyond first null: rect %.4f, hann %.4f", sr, sh)
}

func TestPathInvariance(t *testing.T) {
	// The block streaming pipeline must reproduce the scalar reference path
	// bit for bit, for every provider architecture (the engine-level form of
	// the FillNappe16 bit-identity contract).
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	providers := map[string]delay.Provider{
		"exact": exactProvider(cfg),
		"tablefree": tablefree.New(tablefree.Config{
			Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv}),
		"tablesteer": tablesteer.New(tablesteer.Config{
			Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv}),
	}
	tfFixed := tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv})
	tfFixed.UseFixed = true
	providers["tablefree-fixed"] = tfFixed
	tsFixed := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv})
	tsFixed.UseFixed = true
	providers["tablesteer-fixed"] = tsFixed
	eng := New(cfg)
	for name, p := range providers {
		scalar, err := eng.BeamformScalar(p, bufs)
		if err != nil {
			t.Fatal(err)
		}
		block, err := eng.Beamform(p, bufs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range scalar.Data {
			if scalar.Data[i] != block.Data[i] {
				t.Fatalf("%s: paths disagree at %d: scalar %v, block %v",
					name, i, scalar.Data[i], block.Data[i])
			}
		}
	}
}

func TestBlockPathScalarAdapterFallback(t *testing.T) {
	// A provider that implements only the scalar interface must still run on
	// the block path, through delay.ScalarAdapter, with identical output.
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 30)
	eng := New(cfg)
	wrapped := scalarOnly{exactProvider(cfg)}
	adapted, err := eng.Beamform(wrapped, bufs)
	if err != nil {
		t.Fatal(err)
	}
	native, err := eng.Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range native.Data {
		if native.Data[i] != adapted.Data[i] {
			t.Fatalf("adapter fallback diverges at %d", i)
		}
	}
}

// scalarOnly hides the BlockProvider implementation of the wrapped provider.
type scalarOnly struct{ p delay.Provider }

func (s scalarOnly) Name() string { return s.p.Name() }
func (s scalarOnly) DelaySamples(it, ip, id, ei, ej int) float64 {
	return s.p.DelaySamples(it, ip, id, ei, ej)
}

func TestImageQualityAcrossProviders(t *testing.T) {
	// The paper's §II-A claim: equally accurate delay generation yields the
	// same image. TABLEFREE (±0.5 sample) and TABLESTEER (Taylor error)
	// volumes must correlate ≈1 with the exact-delay volume.
	cfg, bufs, _ := psfSetup(t)
	exact, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	tf := tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv})
	tfVol, err := New(cfg).Beamform(tf, bufs)
	if err != nil {
		t.Fatal(err)
	}
	ref, corr := tablesteer.Bits18Config()
	ts := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv,
		RefFmt: ref, CorrFmt: corr})
	ts.UseFixed = true
	tsVol, err := New(cfg).Beamform(ts, bufs)
	if err != nil {
		t.Fatal(err)
	}
	simTF, err := Similarity(exact, tfVol)
	if err != nil {
		t.Fatal(err)
	}
	simTS, err := Similarity(exact, tsVol)
	if err != nil {
		t.Fatal(err)
	}
	if simTF < 0.98 {
		t.Errorf("TABLEFREE similarity = %.4f, want ≈1", simTF)
	}
	if simTS < 0.95 {
		t.Errorf("TABLESTEER similarity = %.4f, want ≈1", simTS)
	}
	t.Logf("image similarity vs exact: tablefree %.4f, tablesteer-18b %.4f", simTF, simTS)
	// PSF stays put across providers.
	me, err := MeasurePSF(exact, conv, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := MeasurePSF(tfVol, conv, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	if me.PeakIndex != mt.PeakIndex {
		t.Errorf("PSF peak moved: %v vs %v", me.PeakIndex, mt.PeakIndex)
	}
}

func TestVolumeAccessors(t *testing.T) {
	v := &Volume{
		Vol:  scan.NewVolume(geom.Radians(10), geom.Radians(10), 0.01, 3, 4, 5),
		Data: make([]float64, 3*4*5),
	}
	ix := scan.Index{Theta: 2, Phi: 1, Depth: 3}
	v.Data[v.Vol.Linear(ix)] = 7
	if v.At(ix) != 7 {
		t.Error("At broken")
	}
	if line := v.Scanline(2, 1); len(line) != 5 || line[3] != 7 {
		t.Errorf("Scanline = %v", line)
	}
	if lat := v.LateralProfile(1, 3); len(lat) != 3 || lat[2] != 7 {
		t.Errorf("LateralProfile = %v", lat)
	}
	if sl := v.NappeSlice(3); len(sl) != 12 || sl[2*4+1] != 7 {
		t.Errorf("NappeSlice wrong")
	}
	// Accessors must return the full fiber, not just the marked point: fill
	// the grid with a linear ramp and check every extracted sample.
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	at := func(it, ip, id int) float64 {
		return v.At(scan.Index{Theta: it, Phi: ip, Depth: id})
	}
	for id, got := range v.Scanline(2, 1) {
		if got != at(2, 1, id) {
			t.Errorf("Scanline[%d] = %v, want %v", id, got, at(2, 1, id))
		}
	}
	for it, got := range v.LateralProfile(1, 3) {
		if got != at(it, 1, 3) {
			t.Errorf("LateralProfile[%d] = %v, want %v", it, got, at(it, 1, 3))
		}
	}
	for i, got := range v.NappeSlice(3) {
		it, ip := i/4, i%4
		if got != at(it, ip, 3) {
			t.Errorf("NappeSlice[%d] = %v, want %v", i, got, at(it, ip, 3))
		}
	}
}

func TestSimilarityProperties(t *testing.T) {
	v1 := &Volume{Data: []float64{1, 2, 3}}
	if s, err := Similarity(v1, v1); err != nil || math.Abs(s-1) > 1e-12 {
		t.Errorf("self similarity = %v, %v", s, err)
	}
	v2 := &Volume{Data: []float64{2, 4, 6}}
	if s, _ := Similarity(v1, v2); math.Abs(s-1) > 1e-12 {
		t.Error("scaling must not change similarity")
	}
	if _, err := Similarity(v1, &Volume{Data: []float64{1}}); err == nil {
		t.Error("size mismatch must fail")
	}
	if _, err := Similarity(v1, &Volume{Data: []float64{0, 0, 0}}); err == nil {
		t.Error("zero energy must fail")
	}
}

func TestPeakSignalRatio(t *testing.T) {
	a := &Volume{Data: []float64{0, 10, 0}}
	b := &Volume{Data: []float64{0, 10, 0}}
	if r, err := PeakSignalRatio(a, b); err != nil || !math.IsInf(r, 1) {
		t.Errorf("identical volumes ratio = %v, %v", r, err)
	}
	c := &Volume{Data: []float64{0, 9, 0}}
	r, err := PeakSignalRatio(a, c)
	if err != nil {
		t.Fatal(err)
	}
	want := 20 * math.Log10(10/math.Sqrt(1.0/3))
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("ratio = %v, want %v", r, want)
	}
	if _, err := PeakSignalRatio(a, &Volume{Data: []float64{1}}); err == nil {
		t.Error("size mismatch must fail")
	}
	zero := &Volume{Data: []float64{0, 0, 0}}
	if _, err := PeakSignalRatio(zero, zero); err == nil {
		t.Error("zero volume must fail")
	}
}

func BenchmarkBeamformExact(b *testing.B) {
	cfg, bufs, _ := psfSetup(b)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 21, 1, 100)
	eng := New(cfg)
	p := exactProvider(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Beamform(p, bufs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVolumeIntoAccessorsReuseBuffers(t *testing.T) {
	v := &Volume{
		Vol:  scan.NewVolume(geom.Radians(10), geom.Radians(10), 0.01, 3, 4, 5),
		Data: make([]float64, 3*4*5),
	}
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	// Into variants must match the allocating accessors and reuse a caller
	// buffer of sufficient capacity in place.
	buf := make([]float64, 0, 64)
	line := v.ScanlineInto(buf, 2, 1)
	if &line[0] != &buf[:1][0] {
		t.Error("ScanlineInto must reuse the caller buffer")
	}
	for id, got := range line {
		if want := v.At(scan.Index{Theta: 2, Phi: 1, Depth: id}); got != want {
			t.Errorf("ScanlineInto[%d] = %v, want %v", id, got, want)
		}
	}
	lat := v.LateralProfileInto(line, 1, 3) // reuse again, different length
	if len(lat) != 3 {
		t.Fatalf("LateralProfileInto len = %d", len(lat))
	}
	for it, got := range lat {
		if want := v.At(scan.Index{Theta: it, Phi: 1, Depth: 3}); got != want {
			t.Errorf("LateralProfileInto[%d] = %v, want %v", it, got, want)
		}
	}
	sl := v.NappeSliceInto(nil, 3) // nil dst allocates, like the plain form
	for i, got := range sl {
		if want := v.At(scan.Index{Theta: i / 4, Phi: i % 4, Depth: 3}); got != want {
			t.Errorf("NappeSliceInto[%d] = %v, want %v", i, got, want)
		}
	}
	// Undersized buffers grow rather than panic.
	small := make([]float64, 1)
	if got := v.NappeSliceInto(small, 3); len(got) != 12 {
		t.Errorf("undersized NappeSliceInto len = %d", len(got))
	}
	// The analysis-loop shape the variants exist for: repeated extraction
	// through one buffer must not allocate.
	buf = make([]float64, v.Vol.Depth.N)
	avg := testing.AllocsPerRun(20, func() {
		for it := 0; it < v.Vol.Theta.N; it++ {
			buf = v.ScanlineInto(buf, it, 1)
		}
	})
	if avg > 0 {
		t.Errorf("ScanlineInto loop allocates %.1f objects/run, want 0", avg)
	}
}
