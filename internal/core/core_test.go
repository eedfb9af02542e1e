package core

import (
	"math"
	"sync"
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
	if eng.Cfg.Window != xdcr.Hann || eng.Cfg.Order != scan.NappeOrder {
		t.Error("beamformer config not applied")
	}
}

func TestSpecString(t *testing.T) {
	if PaperSpec().String() == "" {
		t.Error("empty spec description")
	}
}

func TestNewCachedSessionBitIdentity(t *testing.T) {
	// A cached cine through the facade constructors must be bit-identical to
	// the scalar reference on every frame, at full and partial residency —
	// the core-level member of the TestPathInvariance family.
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
	eng := s.NewBeamformer(xdcr.Hann, scan.NappeOrder)
	ref, err := eng.BeamformScalar(s.NewExact(), bufs)
	if err != nil {
		t.Fatal(err)
	}
	blockBytes := int64(s.FocalTheta*s.FocalPhi*s.Elements()) * 8
	for name, budget := range map[string]int64{
		"full": -1, "half": blockBytes * int64(s.FocalDepth) / 2, "none": 0,
	} {
		sess, cache, err := s.NewCachedSession(xdcr.Hann, s.NewExact(), budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for frame := 0; frame < 3; frame++ {
			vol, err := sess.Beamform(bufs)
			if err != nil {
				t.Fatalf("%s frame %d: %v", name, frame, err)
			}
			for i := range ref.Data {
				if ref.Data[i] != vol.Data[i] {
					t.Fatalf("%s frame %d: differs from scalar reference at %d",
						name, frame, i)
				}
			}
		}
		st := cache.Stats()
		if name == "full" {
			if !cache.Shared().FullResidency() {
				t.Error("unlimited budget must reach full residency")
			}
			if st.Hits != int64(2*s.FocalDepth) {
				t.Errorf("full residency hits = %d, want %d", st.Hits, 2*s.FocalDepth)
			}
		}
		sess.Close()
	}
	if _, _, err := s.NewCachedSession(xdcr.Hann, nil, -1); err == nil {
		t.Error("nil provider must fail")
	}
}

func TestNewSession(t *testing.T) {
	s := ReducedSpec()
	sess, err := s.NewSession(xdcr.Hann, s.NewExact())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Workers() < 1 {
		t.Error("session has no workers")
	}
	if _, err := s.NewSession(xdcr.Hann, nil); err == nil {
		t.Error("nil provider must fail")
	}
}

func TestNewSessionConfigTransmits(t *testing.T) {
	s := ReducedSpec()
	s.ElemX, s.ElemY = 8, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 3, 10
	s.DepthLambda = 60
	txs := delay.SteeredTransmits(2, s.Aperture()/2, s.Aperture()/2)
	sess, cache, err := s.NewSessionConfig(SessionConfig{
		Window: xdcr.Hann, Cached: true, CacheBudget: -1, Transmits: txs,
	}, s.NewTableFree())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Transmits() != 2 {
		t.Errorf("session transmits = %d", sess.Transmits())
	}
	if cache.Shared().Transmits() != 2 || cache.Stats().TotalBlocks != 2*s.FocalDepth {
		t.Errorf("cache keyed wrong: %+v", cache.Stats())
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

// attachSession builds a session of s over a view of store — the serving
// shape where N sessions of one geometry pay one delay budget: the store's
// own generators fill what it does not hold.
func attachSession(s SystemSpec, cfg SessionConfig, store *delaycache.Shared) (*beamform.Session, *delaycache.Cache, error) {
	eng := s.NewBeamformer(cfg.Window, scan.NappeOrder)
	eng.Cfg.Precision = cfg.Precision
	cache := store.Attach()
	sess, err := eng.NewSessionGenerators(store.Generators(), cache)
	if err != nil {
		cache.Detach()
		return nil, nil, err
	}
	return sess, cache, nil
}

// TestSharedCacheConcurrentBitIdentity is the cache-sharing contract: two
// sessions of the same geometry attached to one Shared block store, running
// concurrently, produce volumes bit-identical to a solo session owning a
// private cache of the same budget — at every precision, at full and
// partial residency, and across an eviction. Run under -race this also
// proves the store's concurrent fill path.
func TestSharedCacheConcurrentBitIdentity(t *testing.T) {
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
	blockBytes := int64(s.FocalTheta*s.FocalPhi*s.Elements()) * 2 // narrow store
	budgets := map[string]int64{
		"full": -1, "half": blockBytes * int64(s.FocalDepth) / 2, "none": 0,
	}
	precisions := []beamform.Precision{beamform.PrecisionFloat64, beamform.PrecisionInt16}
	const frames = 3
	for _, prec := range precisions {
		for name, budget := range budgets {
			cfg := SessionConfig{
				Window: xdcr.Hann, Precision: prec,
				Cached: true, CacheBudget: budget,
			}
			// Solo reference: a private cache of the same budget.
			solo, _, err := s.NewSessionConfig(cfg, s.NewExact())
			if err != nil {
				t.Fatalf("%v/%s solo: %v", prec, name, err)
			}
			ref, err := solo.Beamform(bufs)
			solo.Close()
			if err != nil {
				t.Fatalf("%v/%s solo: %v", prec, name, err)
			}

			shared, err := s.NewSharedCache(cfg, s.NewExact())
			if err != nil {
				t.Fatalf("%v/%s: %v", prec, name, err)
			}
			var wg sync.WaitGroup
			for stream := 0; stream < 2; stream++ {
				sess, cache, err := attachSession(s, cfg, shared)
				if err != nil {
					t.Fatalf("%v/%s attach %d: %v", prec, name, stream, err)
				}
				if cache.Shared() != shared {
					t.Fatalf("%v/%s: attachment not backed by the shared store", prec, name)
				}
				wg.Add(1)
				go func(stream int) {
					defer wg.Done()
					defer sess.Close()
					defer cache.Detach()
					out := &beamform.Volume{Vol: ref.Vol, Data: make([]float64, len(ref.Data))}
					for f := 0; f < frames; f++ {
						if err := sess.BeamformInto(out, bufs); err != nil {
							t.Errorf("%v/%s stream %d frame %d: %v", prec, name, stream, f, err)
							return
						}
						for i := range ref.Data {
							if ref.Data[i] != out.Data[i] {
								t.Errorf("%v/%s stream %d frame %d: differs from solo run at %d",
									prec, name, stream, f, i)
								return
							}
						}
					}
				}(stream)
			}
			wg.Wait()
			if got := shared.Attachments(); got != 0 {
				t.Errorf("%v/%s: %d attachments after detach, want 0", prec, name, got)
			}

			// Eviction drops the blocks; a rewarmed run is still bit-identical
			// (deterministic prefix: the same blocks refill with the same bytes).
			shared.Evict()
			if st := shared.Stats(); st.Evictions != 1 || st.BytesResident != 0 {
				t.Errorf("%v/%s post-evict stats: %+v", prec, name, st)
			}
			sess, cache, err := attachSession(s, cfg, shared)
			if err != nil {
				t.Fatalf("%v/%s re-attach: %v", prec, name, err)
			}
			vol, err := sess.Beamform(bufs)
			if err != nil {
				t.Fatalf("%v/%s post-evict frame: %v", prec, name, err)
			}
			for i := range ref.Data {
				if ref.Data[i] != vol.Data[i] {
					t.Fatalf("%v/%s: post-eviction rewarm differs from solo run at %d", prec, name, i)
				}
			}
			cache.Detach()
			sess.Close()
		}
	}

	// Attaching a store of the wrong shape must fail loudly.
	shared, err := s.NewSharedCache(SessionConfig{Window: xdcr.Hann, CacheBudget: -1}, s.NewExact())
	if err != nil {
		t.Fatal(err)
	}
	other := s
	other.FocalTheta = 7
	if _, _, err := attachSession(other, SessionConfig{Window: xdcr.Hann}, shared); err == nil {
		t.Error("layout mismatch must fail")
	}
	if got := shared.Attachments(); got != 0 {
		t.Errorf("a refused attachment stayed attached: %d attachments", got)
	}
	view := shared.Attach()
	defer view.Detach()
	gens := shared.Generators()
	if _, err := s.NewBeamformer(xdcr.Hann, scan.NappeOrder).NewSessionGenerators(append(gens, gens...), view); err == nil {
		t.Error("transmit-count mismatch must fail")
	}
}
