package core

import (
	"math"
	"slices"
	"testing"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

func TestPaperSpecDerivedQuantities(t *testing.T) {
	s := PaperSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table I derived rows.
	if l := s.Lambda(); math.Abs(l-0.385e-3) > 1e-9 {
		t.Errorf("λ = %v, want 0.385 mm", l)
	}
	if p := s.Pitch(); math.Abs(p-0.1925e-3) > 1e-9 {
		t.Errorf("pitch = %v, want λ/2", p)
	}
	if d := s.Aperture(); math.Abs(d-19.25e-3) > 1e-6 {
		t.Errorf("aperture = %v, want 19.25 mm (50λ)", d)
	}
	if d := s.Depth(); math.Abs(d-192.5e-3) > 1e-6 {
		t.Errorf("depth = %v, want 192.5 mm (500λ)", d)
	}
	if s.SamplesPerLambda() != 8 {
		t.Errorf("fs/fc = %v", s.SamplesPerLambda())
	}
	if s.Points() != 16_384_000 || s.Elements() != 10_000 {
		t.Errorf("grid sizes: %d points, %d elements", s.Points(), s.Elements())
	}
	// §II-B: ≈164×10⁹ delays per frame.
	if d := s.DelaysPerFrame(); d < 163e9 || d > 165e9 {
		t.Errorf("delays/frame = %.3g", d)
	}
	// §V-B: echo buffer "slightly more than 8000 samples".
	if n := s.EchoBufferSamples(); n < 8000 || n > 9000 {
		t.Errorf("echo buffer = %d samples", n)
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	mutations := []func(*SystemSpec){
		func(s *SystemSpec) { s.C = 0 },
		func(s *SystemSpec) { s.ElemX = 0 },
		func(s *SystemSpec) { s.FocalDepth = -1 },
		func(s *SystemSpec) { s.DepthLambda = 0 },
		func(s *SystemSpec) { s.PitchL = 0 },
	}
	for i, mutate := range mutations {
		s := PaperSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestReducedSpecConsistent(t *testing.T) {
	s := ReducedSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same physics as the paper, smaller grids.
	p := PaperSpec()
	if s.Lambda() != p.Lambda() || s.Fs != p.Fs || s.ThetaDeg != p.ThetaDeg {
		t.Error("reduced spec must preserve the physics")
	}
	if s.Elements() >= p.Elements() {
		t.Error("reduced spec must be smaller")
	}
}

func TestProvidersAgreeOnUnsteeredAxis(t *testing.T) {
	s := ReducedSpec()
	exact := s.NewExact()
	tf := s.NewTableFree()
	ts := s.NewTableSteer(18)
	it, ip := s.FocalTheta/2, s.FocalPhi/2 // odd grids: exactly on axis
	for _, id := range []int{0, s.FocalDepth / 2, s.FocalDepth - 1} {
		e := exact.DelaySamples(it, ip, id, 8, 8)
		if d := tf.DelaySamples(it, ip, id, 8, 8); math.Abs(d-e) > 0.5 {
			t.Errorf("tablefree off by %v samples at depth %d", d-e, id)
		}
		if d := ts.DelaySamples(it, ip, id, 8, 8); math.Abs(d-e) > 0.5 {
			t.Errorf("tablesteer off by %v samples at depth %d", d-e, id)
		}
	}
}

func TestNewTableSteerBitsSelection(t *testing.T) {
	s := ReducedSpec()
	p18 := s.NewTableSteer(18)
	p14 := s.NewTableSteer(14)
	pDefault := s.NewTableSteer(0)
	if p18.Cfg.RefFmt.Bits() != 18 || p14.Cfg.RefFmt.Bits() != 14 {
		t.Error("bit selection broken")
	}
	if pDefault.Cfg.RefFmt.Bits() != 18 {
		t.Error("default must be 18-bit")
	}
}

func TestNewBeamformer(t *testing.T) {
	s := ReducedSpec()
	eng := s.NewBeamformer(xdcr.Hann, scan.NappeOrder)
	if eng.Cfg.Vol.Points() != s.Points() {
		t.Error("beamformer volume mismatch")
	}
	if eng.Cfg.Window != xdcr.Hann {
		t.Error("beamformer config not applied")
	}
}

func TestSpecString(t *testing.T) {
	if PaperSpec().String() == "" {
		t.Error("empty spec description")
	}
}

// TestNewSessionConfigTransmits: NewSessionConfig lifts one generator set
// on its uncached and cached paths and for NewSharedCache — a session of
// each, and one attached to a shared store, beamform a two-transmit frame
// to the same non-zero volume — keys the cache by the whole transmit set,
// and refuses a nil provider, or a transmit set the architecture cannot
// represent, when it builds rather than when it beamforms.
func TestNewSessionConfigTransmits(t *testing.T) {
	s := ReducedSpec()
	s.ElemX, s.ElemY = 8, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 3, 10
	s.DepthLambda = 60
	bufs, err := rf.Synthesize(rf.Config{
		Arr: s.Array(), Conv: s.Converter(), Pulse: rf.NewPulse(s.Fc, s.B),
		BufSamples: s.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.6 * s.Depth()}))
	if err != nil {
		t.Fatal(err)
	}
	txs := delay.SteeredTransmits(2, s.Aperture()/2, s.Aperture()/2)
	cfg := SessionConfig{Window: xdcr.Hann, CacheBudget: -1, Transmits: txs}
	var want []float64
	for _, kind := range []string{"uncached", "cached", "shared"} {
		var sess *beamform.Session
		var cache *delaycache.Cache
		if kind == "shared" {
			store, err := s.NewSharedCache(cfg, s.NewTableFree())
			if err != nil {
				t.Fatal(err)
			}
			cache = store.Attach()
			sess, err = s.NewBeamformer(xdcr.Hann, scan.NappeOrder).NewSession(store.Generators(), cache)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			c := cfg
			c.Cached = kind == "cached"
			if sess, cache, err = s.NewSessionConfig(c, s.NewTableFree()); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.NewSessionConfig(c, nil); err == nil {
				t.Errorf("%s: nil provider must fail", kind)
			}
		}
		if (cache != nil) != (kind != "uncached") ||
			cache != nil && (cache.Shared().Transmits() != 2 || cache.Stats().TotalBlocks != 2*s.FocalDepth) {
			t.Errorf("%s: cache keyed wrong: %v", kind, cache)
		}
		vol := sess.NewVolume()
		err := sess.Run(vol, beamform.Frame{Bufs: [][]rf.EchoBuffer{bufs, bufs}})
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = vol.Data
		}
		if !slices.Equal(vol.Data, want) || !slices.ContainsFunc(want, func(v float64) bool { return v != 0 }) {
			t.Errorf("%s session differs from the uncached one or is silent", kind)
		}
	}
	// TABLESTEER cannot represent off-axis transmits: the derivation error
	// must surface from NewSessionConfig, not at beamform time.
	if _, _, err := s.NewSessionConfig(SessionConfig{
		Window: xdcr.Hann, Transmits: txs,
	}, s.NewTableSteer(18)); err == nil {
		t.Error("off-axis transmit set through tablesteer must fail")
	}
	// On-axis sets are fine for every architecture.
	axial := delay.AxialTransmits(2, -4e-3, 0)
	sess2, _, err := s.NewSessionConfig(SessionConfig{
		Window: xdcr.Hann, Transmits: axial,
	}, s.NewTableSteer(18))
	if err != nil {
		t.Fatal(err)
	}
	sess2.Close()
}
