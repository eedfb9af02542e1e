package beamform

import (
	"math"
	"slices"
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

// TestPathInvariance: the block streaming pipeline must reproduce the
// scalar reference path bit for bit, for every provider architecture (the
// engine-level form of the FillNappe16 bit-identity contract).
func TestPathInvariance(t *testing.T) { pathInvariance(t, "") }

func TestBlockPathScalarAdapterFallback(t *testing.T) { pathInvariance(t, "scalar-only") }

// pathInvariance holds Beamform to BeamformScalar for every provider, or
// for the one named only.
func pathInvariance(t *testing.T, only string) {
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
	// A provider with only the scalar interface runs on the block path
	// through delay.ScalarAdapter (TestBlockPathScalarAdapterFallback).
	providers["scalar-only"] = scalarOnly{exactProvider(cfg)}
	if only != "" {
		providers = map[string]delay.Provider{only: providers[only]}
	}
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

// scalarOnly hides the BlockProvider implementation of the wrapped provider.
type scalarOnly struct{ p delay.Provider }

func (s scalarOnly) Name() string { return s.p.Name() }
func (s scalarOnly) DelaySamples(it, ip, id, ei, ej int) float64 {
	return s.p.DelaySamples(it, ip, id, ei, ej)
}

// TestImageQualityAcrossProviders: the paper's §II-A claim, equally
// accurate delay generation yields the same image. TABLEFREE (±0.5 sample)
// and TABLESTEER-18b (Taylor error) volumes must correlate ≈1 with the
// exact-delay volume, with the PSF peak where the exact one has it.
func TestImageQualityAcrossProviders(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	exact, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	me, err := MeasurePSF(exact, conv, 4e6)
	if err != nil {
		t.Fatal(err)
	}
	ref, corr := tablesteer.Bits18Config()
	ts := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv, RefFmt: ref, CorrFmt: corr})
	ts.UseFixed = true
	for _, c := range []struct {
		p   delay.Provider
		min float64
	}{{tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: conv}), 0.98}, {ts, 0.95}} {
		vol, err := New(cfg).Beamform(c.p, bufs)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Similarity(exact, vol)
		if err != nil {
			t.Fatal(err)
		}
		m, err := MeasurePSF(vol, conv, 4e6)
		if err != nil {
			t.Fatal(err)
		}
		if sim < c.min || m.PeakIndex != me.PeakIndex {
			t.Errorf("%s: similarity %.4f (want ≥ %v), PSF peak %v (exact %v)", c.p.Name(), sim, c.min, m.PeakIndex, me.PeakIndex)
		}
		t.Logf("image similarity vs exact: %s %.4f", c.p.Name(), sim)
	}
}

// rampVolume is a 3×4×5 volume whose every sample is its own index.
func rampVolume() *Volume {
	v := &Volume{Vol: scan.NewVolume(geom.Radians(10), geom.Radians(10), 0.01, 3, 4, 5), Data: make([]float64, 3*4*5)}
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	return v
}

// fibersMatch holds v's scanline (θ 2, φ 1), lateral profile (φ 1, depth 3)
// and nappe slice (depth 3), as extracted by one accessor form, to At,
// sample for sample.
func fibersMatch(t *testing.T, v *Volume, form string, line, lat, nappe []float64) {
	t.Helper()
	at := func(it, ip, id int) float64 { return v.At(scan.Index{Theta: it, Phi: ip, Depth: id}) }
	if len(line) != 5 || len(lat) != 3 || len(nappe) != 12 {
		t.Fatalf("%s: fibers of %d, %d and %d samples", form, len(line), len(lat), len(nappe))
	}
	for id, got := range line {
		if got != at(2, 1, id) {
			t.Errorf("%s scanline[%d] = %v, want %v", form, id, got, at(2, 1, id))
		}
	}
	for it, got := range lat {
		if got != at(it, 1, 3) {
			t.Errorf("%s lateral profile[%d] = %v, want %v", form, it, got, at(it, 1, 3))
		}
	}
	for i, got := range nappe {
		if got != at(i/4, i%4, 3) {
			t.Errorf("%s nappe slice[%d] = %v, want %v", form, i, got, at(i/4, i%4, 3))
		}
	}
}

func TestVolumeAccessors(t *testing.T) {
	v := rampVolume()
	if ix := (scan.Index{Theta: 2, Phi: 1, Depth: 3}); v.At(ix) != float64(v.Vol.Linear(ix)) {
		t.Error("At broken")
	}
	fibersMatch(t, v, "plain", v.Scanline(2, 1), v.LateralProfile(1, 3), v.NappeSlice(3))
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

// TestVolumeIntoAccessorsReuseBuffers: the Into variants match the plain
// accessors, reuse a caller buffer of sufficient capacity in place, grow
// an undersized one, and through one buffer do not allocate.
func TestVolumeIntoAccessorsReuseBuffers(t *testing.T) {
	v := rampVolume()
	buf := make([]float64, 0, 64)
	line := v.ScanlineInto(buf, 2, 1)
	if &line[0] != &buf[:1][0] {
		t.Error("ScanlineInto must reuse the caller buffer")
	}
	kept := slices.Clone(line)
	lat := v.LateralProfileInto(line, 1, 3) // reuse again, different length
	fibersMatch(t, v, "Into", kept, lat, v.NappeSliceInto(nil, 3))
	if got := v.NappeSliceInto(make([]float64, 1), 3); len(got) != 12 {
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
