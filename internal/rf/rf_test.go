package rf

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/wire"
	"ultrabeam/internal/xdcr"
)

var conv = delay.Converter{C: 1540, Fs: 32e6}

func testConfig() Config {
	return Config{
		Arr:        xdcr.NewArray(8, 8, 0.385e-3/2),
		Conv:       conv,
		Pulse:      NewPulse(4e6, 4e6),
		BufSamples: 4096,
	}
}

func TestPulsePeakAtZero(t *testing.T) {
	p := NewPulse(4e6, 4e6)
	if got := p.At(0); got != 1 {
		t.Errorf("pulse peak = %v", got)
	}
	// Symmetric envelope: |p(t)| ≤ envelope, decaying away from 0.
	if math.Abs(p.At(p.Sigma*3)) > math.Exp(-4) {
		t.Error("envelope decay too slow")
	}
	if p.Duration() <= 0 {
		t.Error("duration must be positive")
	}
}

func TestPulseBandwidthSetsSigma(t *testing.T) {
	wide := NewPulse(4e6, 8e6)
	narrow := NewPulse(4e6, 1e6)
	if wide.Sigma >= narrow.Sigma {
		t.Error("wider bandwidth must mean shorter pulse")
	}
}

func TestPhantomBuilders(t *testing.T) {
	pt := PointPhantom(geom.Vec3{Z: 0.05})
	if len(pt.Scatterers) != 1 || pt.Scatterers[0].Refl != 1 {
		t.Error("point phantom")
	}
	grid := GridPhantom([]geom.Vec3{{Z: 0.01}, {Z: 0.02}, {Z: 0.03}})
	if len(grid.Scatterers) != 3 {
		t.Error("grid phantom")
	}
	sp := SpecklePhantom(100, geom.Vec3{X: -0.01, Z: 0.01}, geom.Vec3{X: 0.01, Z: 0.05}, 1)
	if len(sp.Scatterers) != 100 {
		t.Error("speckle phantom count")
	}
	for _, s := range sp.Scatterers {
		if s.Pos.X < -0.01 || s.Pos.X > 0.01 || s.Pos.Z < 0.01 || s.Pos.Z > 0.05 {
			t.Fatal("speckle scatterer outside box")
		}
		if s.Refl <= 0 {
			t.Fatal("non-positive reflectivity")
		}
	}
	again := SpecklePhantom(100, geom.Vec3{X: -0.01, Z: 0.01}, geom.Vec3{X: 0.01, Z: 0.05}, 1)
	if again.Scatterers[42] != sp.Scatterers[42] {
		t.Error("speckle phantom must be reproducible for a seed")
	}
}

func TestEchoBufferAccess(t *testing.T) {
	b := EchoBuffer{Samples: []float64{1, 2, 3}}
	if b.At(-1) != 0 || b.At(3) != 0 {
		t.Error("out-of-range reads must be 0")
	}
	if b.At(1) != 2 {
		t.Error("in-range read")
	}
}

func TestSynthesizeEchoArrivalTime(t *testing.T) {
	cfg := testConfig()
	pos := geom.Vec3{Z: 0.02} // 20 mm straight ahead
	bufs, err := Synthesize(cfg, PointPhantom(pos))
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs) != cfg.Arr.Elements() {
		t.Fatalf("buffer count = %d", len(bufs))
	}
	// The echo on each element must peak at the exact two-way time.
	for _, el := range [][2]int{{0, 0}, {3, 4}, {7, 7}} {
		buf := bufs[cfg.Arr.Index(el[0], el[1])]
		tp := delay.TwoWaySeconds(cfg.Origin, pos, cfg.Arr.ElementPos(el[0], el[1]), conv.C)
		wantIdx := int(math.Round(tp * conv.Fs))
		// Find envelope peak by scanning |signal| (carrier peaks may offset
		// by a fraction of a cycle; allow ±4 samples = half a period).
		best, bestI := 0.0, -1
		for i, v := range buf.Samples {
			if math.Abs(v) > best {
				best, bestI = math.Abs(v), i
			}
		}
		if d := bestI - wantIdx; d < -4 || d > 4 {
			t.Errorf("element %v: echo peak at %d, want ≈%d", el, bestI, wantIdx)
		}
	}
}

func TestSynthesizeSuperposition(t *testing.T) {
	// Two scatterers must superpose linearly.
	cfg := testConfig()
	a := geom.Vec3{Z: 0.015}
	b := geom.Vec3{Z: 0.030}
	bufA, err := Synthesize(cfg, PointPhantom(a))
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := Synthesize(cfg, PointPhantom(b))
	if err != nil {
		t.Fatal(err)
	}
	bufAB, err := Synthesize(cfg, GridPhantom([]geom.Vec3{a, b}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bufAB[0].Samples {
		want := bufA[0].Samples[i] + bufB[0].Samples[i]
		if math.Abs(bufAB[0].Samples[i]-want) > 1e-12 {
			t.Fatalf("superposition broken at sample %d", i)
		}
	}
}

func TestSynthesizeSpreadingLoss(t *testing.T) {
	cfg := testConfig()
	near, err := Synthesize(cfg, PointPhantom(geom.Vec3{Z: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	far, err := Synthesize(cfg, PointPhantom(geom.Vec3{Z: 0.04}))
	if err != nil {
		t.Fatal(err)
	}
	peak := func(b EchoBuffer) float64 {
		m := 0.0
		for _, v := range b.Samples {
			if math.Abs(v) > m {
				m = math.Abs(v)
			}
		}
		return m
	}
	if peak(far[0]) >= peak(near[0]) {
		t.Error("farther scatterer must produce weaker echo")
	}
}

func TestSynthesizeDirectivityZeroesSteepEchoes(t *testing.T) {
	cfg := testConfig()
	cfg.Dir = xdcr.Directivity{MaxAngle: geom.Radians(20)}
	// Scatterer far off axis: outside every element's 20° cone.
	bufs, err := Synthesize(cfg, PointPhantom(geom.Vec3{X: 0.05, Z: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bufs {
		for _, v := range b.Samples {
			if v != 0 {
				t.Fatal("directivity-rejected echo should be silent")
			}
		}
	}
}

func TestSynthesizeNoiseReproducible(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseRMS = 0.01
	cfg.NoiseSeed = 7
	a, err := Synthesize(cfg, Phantom{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg, Phantom{})
	if err != nil {
		t.Fatal(err)
	}
	if a[5].Samples[100] != b[5].Samples[100] {
		t.Error("noise must be reproducible for a seed")
	}
	if a[5].Samples[100] == 0 {
		t.Error("noise should actually be injected")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	cfg := testConfig()
	cfg.BufSamples = 0
	if _, err := Synthesize(cfg, Phantom{}); err == nil {
		t.Error("zero buffer must fail")
	}
	cfg = testConfig()
	cfg.Conv = delay.Converter{}
	if _, err := Synthesize(cfg, Phantom{}); err == nil {
		t.Error("invalid converter must fail")
	}
}

func TestEchoBufferBoundaryIndices(t *testing.T) {
	// The exact boundary semantics the int16 datapath's exactness proof
	// leans on: index len-1 is the last real sample, len and -1 read as
	// silence, and the empty buffer is silent everywhere.
	b := EchoBuffer{Samples: []float64{1, 2, 3, 4}}
	n := len(b.Samples)
	if b.At(0) != 1 || b.At(n-1) != 4 {
		t.Error("boundary in-window reads")
	}
	if b.At(n) != 0 || b.At(n+1) != 0 || b.At(-1) != 0 {
		t.Error("boundary out-of-window reads must be 0")
	}
	empty := EchoBuffer{}
	if empty.At(0) != 0 {
		t.Error("empty buffer must read silence")
	}
}

// TestPlane32Layout pins the guarded float32 plane: element d's samples at
// d·(win+1), one rounding per sample, every guard slot zero, and the same
// shape errors as PlaneI16.
func TestPlane32Layout(t *testing.T) {
	bufs := []EchoBuffer{
		{Samples: []float64{0.5, -1.25, 3e-7}},
		{Samples: []float64{8, 1e-40, -2}},
	}
	plane, err := Plane32(bufs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plane) != 2*4 {
		t.Fatalf("plane length %d, want 8 (guarded stride)", len(plane))
	}
	for d, b := range bufs {
		for i, v := range b.Samples {
			if got := plane[d*4+i]; got != float32(v) {
				t.Errorf("plane[%d] = %v, want float32(%v)", d*4+i, got, v)
			}
		}
		if g := plane[d*4+3]; g != 0 {
			t.Errorf("guard slot of element %d = %v, want 0", d, g)
		}
	}
	if _, err := Plane32([]EchoBuffer{{Samples: []float64{1, 2}}, {Samples: []float64{3}}}, 2); err == nil {
		t.Error("ragged windows must be rejected")
	}
	if _, err := Plane32(bufs[:1], 0); err == nil {
		t.Error("zero window must be rejected")
	}
}

// TestPlaneI16Quantization pins the ADC-native plane contract: guarded
// layout, peak-normalized scale, round-to-even, saturation at ±32767,
// NaN→0, ±Inf saturating without poisoning the peak, and the all-zero
// frame's scale-1 fallback — the exact QuantizeI16 wire contract, so a
// locally quantized plane and a network-decoded one are interchangeable.
func TestPlaneI16Quantization(t *testing.T) {
	bufs := []EchoBuffer{
		{Samples: []float64{100, -50, 25}},
		{Samples: []float64{0, 1, -100}},
	}
	plane, scale, err := PlaneI16(bufs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := float32(100.0 / 32767); scale != want {
		t.Fatalf("scale = %v, want %v", scale, want)
	}
	if len(plane) != 2*4 {
		t.Fatalf("plane length %d, want 8 (guarded stride)", len(plane))
	}
	want := []int16{32767, -16384, 8192, 0, 0, 328, -32767, 0}
	for i, v := range want {
		got := plane[i]
		// Row samples round to even of sample/scale; recompute exactly.
		if i%4 != 3 {
			d, s := i/4, i%4
			got = plane[i]
			exact := int16(math.RoundToEven(bufs[d].Samples[s] / float64(scale)))
			if got != exact {
				t.Errorf("plane[%d] = %d, want %d (round-to-even)", i, got, exact)
			}
			continue
		}
		if got != v {
			t.Errorf("guard slot %d = %d, want 0", i, got)
		}
	}
	// The loudest sample spans the full range exactly.
	if plane[0] != 32767 || plane[6] != -32767 {
		t.Errorf("peak samples = %d, %d, want ±32767", plane[0], plane[6])
	}

	// Non-finite handling: NaN→0, ±Inf saturates, and neither sets the peak.
	nf := []EchoBuffer{{Samples: []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2}}}
	plane, scale, err = PlaneI16(nf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := float32(2.0 / 32767); scale != want {
		t.Fatalf("non-finite frame scale = %v, want %v (finite peak only)", scale, want)
	}
	if plane[0] != 0 || plane[1] != 32767 || plane[2] != -32767 || plane[3] != 32767 {
		t.Errorf("non-finite quantization = %v", plane[:4])
	}

	// All-zero (and all-non-finite) frames: scale 1, never zero or NaN.
	for _, s := range [][]float64{{0, 0}, {math.NaN(), math.NaN()}} {
		_, scale, err := PlaneI16([]EchoBuffer{{Samples: s}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if scale != 1 {
			t.Errorf("degenerate frame %v scale = %v, want 1", s, scale)
		}
	}
}

// TestPlaneI16RoundTripError bounds the quantization error: every
// reconstructed sample int16·scale must sit within half a quantization
// step of the source.
func TestPlaneI16RoundTripError(t *testing.T) {
	bufs, err := Synthesize(testConfig(), PointPhantom(geom.Vec3{Z: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	win := len(bufs[0].Samples)
	plane, scale, err := PlaneI16(bufs, win)
	if err != nil {
		t.Fatal(err)
	}
	half := float64(scale) / 2 * 1.0000001
	for d, b := range bufs {
		row := plane[d*(win+1) : d*(win+1)+win]
		for i, v := range b.Samples {
			if diff := math.Abs(float64(row[i])*float64(scale) - v); diff > half {
				t.Fatalf("element %d sample %d: |%v·%v − %v| = %v exceeds half a step",
					d, i, row[i], scale, v, diff)
			}
		}
	}
}

// TestPlaneI16Validation pins the shape errors shared with Plane32.
func TestPlaneI16Validation(t *testing.T) {
	bufs := []EchoBuffer{{Samples: []float64{1, 2}}, {Samples: []float64{3}}}
	if _, _, err := PlaneI16(bufs, 2); err == nil {
		t.Error("ragged windows must be rejected")
	}
	if _, _, err := PlaneI16(bufs[:1], 0); err == nil {
		t.Error("zero window must be rejected")
	}
}

// TestPlaneI16MatchesWireQuantizeI16: a frame quantized into a plane and
// the same frame quantized into a wire i16 payload carry equal words and
// an equal scale, on the inputs where a private copy of the rule would
// drift first — non-finite samples, values past ±32767, exact ties and an
// all-zero frame. Each frame puts its peak in the second row, so the peak
// must span rows.
func TestPlaneI16MatchesWireQuantizeI16(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		rows [][]float64
	}{
		{"nonfinite", [][]float64{{nan, inf, -inf, 3}, {-7, nan, 0.25, 1}}},
		{"saturation", [][]float64{{32767, -32767, 32766.5, 1}, {32767.5, -32767.5, -1, 0}}},
		{"ties_at_scale_1", [][]float64{{0.5, 1.5, 2.5, -0.5}, {-1.5, -2.5, 32766.5, 32767}}},
		{"ties_below_peak", [][]float64{{-0.5, 0.5, 3.5, -3.5}, {4.5, -4.5, -32767, 0}}},
		{"all_zero", [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}}},
		{"all_nonfinite", [][]float64{{nan, inf, -inf, nan}, {-inf, nan, inf, inf}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const win = 4
			bufs := make([]EchoBuffer, len(tc.rows))
			var flat []float64
			for d, row := range tc.rows {
				bufs[d].Samples = row
				flat = append(flat, row...)
			}
			plane, scale, err := PlaneI16(bufs, win)
			if err != nil {
				t.Fatal(err)
			}
			q, wscale := wire.QuantizeI16(flat)
			if scale != wscale {
				t.Fatalf("plane scale %v, wire scale %v", scale, wscale)
			}
			for d := range tc.rows {
				for i := 0; i < win; i++ {
					if got, want := plane[d*(win+1)+i], q[d*win+i]; got != want {
						t.Errorf("row %d sample %d (%v): plane %d, wire %d", d, i, tc.rows[d][i], got, want)
					}
				}
			}
		})
	}
}
