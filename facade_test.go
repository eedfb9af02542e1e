package ultrabeam_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"testing"

	"ultrabeam"
	"ultrabeam/internal/beamform"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/memmodel"
	"ultrabeam/internal/rf"
)

func TestFacadeSpecs(t *testing.T) {
	paper := ultrabeam.PaperSpec()
	if err := paper.Validate(); err != nil {
		t.Fatal(err)
	}
	if paper.Elements() != 10000 {
		t.Errorf("paper elements = %d", paper.Elements())
	}
	reduced := ultrabeam.ReducedSpec()
	if err := reduced.Validate(); err != nil {
		t.Fatal(err)
	}
	if reduced.Elements() >= paper.Elements() {
		t.Error("reduced spec must be smaller")
	}
}

func TestFacadeProvidersInterchangeable(t *testing.T) {
	spec := ultrabeam.ReducedSpec()
	providers := []ultrabeam.Provider{
		spec.NewExact(),
		spec.NewTableFree(),
		spec.NewTableSteer(18),
	}
	names := map[string]bool{}
	for _, p := range providers {
		names[p.Name()] = true
		d := p.DelaySamples(spec.FocalTheta/2, spec.FocalPhi/2, spec.FocalDepth/2, 8, 8)
		if d <= 0 || math.IsNaN(d) {
			t.Errorf("%s returned delay %v", p.Name(), d)
		}
	}
	if len(names) != 3 {
		t.Errorf("providers must have distinct names: %v", names)
	}
}

func TestFacadeConverter(t *testing.T) {
	cv := ultrabeam.Converter{C: 1540, Fs: 32e6}
	if got := cv.MetersToSamples(0.385e-3); math.Abs(got-8) > 1e-9 {
		t.Errorf("λ = %v samples, want 8", got)
	}
}

// facadeScene is the small geometry the session tests run on and the echo
// set of a point phantom for each transmit origin.
func facadeScene(t *testing.T, txs ...ultrabeam.Transmit) (ultrabeam.SystemSpec, [][]ultrabeam.EchoBuffer) {
	t.Helper()
	spec := ultrabeam.ReducedSpec()
	spec.ElemX, spec.ElemY = 8, 8
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 9, 3, 10
	spec.DepthLambda = 60
	tx := make([][]ultrabeam.EchoBuffer, len(txs))
	for i := range txs {
		bufs, err := rf.Synthesize(rf.Config{
			Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
			Origin: txs[i].Origin, BufSamples: spec.EchoBufferSamples(),
		}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
		if err != nil {
			t.Fatal(err)
		}
		tx[i] = bufs
	}
	return spec, tx
}

// TestFacadeSessionAndCache: a cached cine through the facade's session
// types — SessionConfig, Session, DelayCache, Frame, CacheStats — amortizes
// delay generation: frame 0 fills the cache, later frames only hit.
func TestFacadeSessionAndCache(t *testing.T) {
	spec, tx := facadeScene(t, ultrabeam.Transmit{})
	var sess *ultrabeam.Session
	var cache *ultrabeam.DelayCache
	sess, cache, err := spec.NewSessionConfig(ultrabeam.SessionConfig{
		Window: ultrabeam.Hann, Cached: true, CacheBudget: -1,
	}, spec.NewExact())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var vol *ultrabeam.Volume = sess.NewVolume()
	var warm ultrabeam.CacheStats // after frame 0, which fills the cache
	for f := 0; f < 3; f++ {
		if err := sess.Run(vol, ultrabeam.Frame{Bufs: tx}); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if f == 0 {
			warm = cache.Stats()
		}
	}
	st := cache.Stats()
	if !cache.Shared().FullResidency() || st.Hits == 0 || st.Misses != warm.Misses || sess.Frames() != 3 {
		t.Errorf("cache did not amortize over %d frames: frame 0 %v, after frame 2 %v", sess.Frames(), warm, st)
	}
}

func TestFacadeBudgetFromBanks(t *testing.T) {
	banks := ultrabeam.BankArray{
		Spec:  memmodel.BankSpec{WordBits: 18, Lines: 1024},
		Banks: 128,
	}
	if got := ultrabeam.BudgetFromBanks(banks); got != 128*1024*8 {
		t.Errorf("BudgetFromBanks = %d", got)
	}
	// The paper's sweep-order and window selectors are facade-visible.
	if ultrabeam.Hann == ultrabeam.Rect || ultrabeam.NappeOrder == ultrabeam.ScanlineOrder {
		t.Error("facade constants collapsed")
	}
}

func TestFacadeNarrowDatapath(t *testing.T) {
	spec, tx := facadeScene(t, ultrabeam.Transmit{})
	bufs := tx[0]
	// Every provider fills narrow blocks through the facade type.
	var bp ultrabeam.BlockProvider = spec.NewExact()
	blk := make(ultrabeam.Block16, bp.Layout().BlockLen())
	bp.FillNappe16(0, blk)
	if len(bufs[0].Samples) > ultrabeam.MaxEchoWindow {
		t.Fatal("reduced-scale window must fit the int16 index range")
	}
	// Both precisions beamform through SessionConfig; i16 sits above the
	// 60 dB gate against the float64 golden.
	var golden *ultrabeam.Volume
	for _, prec := range []ultrabeam.Precision{ultrabeam.PrecisionFloat64, ultrabeam.PrecisionInt16} {
		sess, cache, err := spec.NewSessionConfig(ultrabeam.SessionConfig{
			Window: ultrabeam.Hann, Precision: prec,
			Cached: true, CacheBudget: -1,
		}, spec.NewTableFree())
		if err != nil {
			t.Fatal(err)
		}
		vol := sess.NewVolume()
		err = sess.Run(vol, ultrabeam.Frame{Bufs: [][]ultrabeam.EchoBuffer{bufs}})
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cache == nil || cache.Stats().Fills == 0 {
			t.Fatalf("%v: cache not exercised", prec)
		}
		if prec == ultrabeam.PrecisionFloat64 {
			golden = vol
			continue
		}
		psnr, err := beamform.PeakSignalRatio(golden, vol)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 60 {
			t.Errorf("%v PSNR = %.1f dB through the facade", prec, psnr)
		}
	}
}

// TestFacadeCompoundInvariance: a compound set built from the facade's
// SteeredTransmits runs through SessionConfig.Transmits as one Frame of
// per-transmit echoes, over a cache keyed by the whole transmit set, and a
// repeated frame repeats its volume.
func TestFacadeCompoundInvariance(t *testing.T) {
	spec, _ := facadeScene(t)
	txs := ultrabeam.SteeredTransmits(3, spec.Aperture()/2, spec.Aperture()/2)
	_, tx := facadeScene(t, txs...)
	sess, cache, err := spec.NewSessionConfig(ultrabeam.SessionConfig{
		Window: ultrabeam.Hann, Cached: true, CacheBudget: -1, Transmits: txs,
	}, spec.NewTableFree())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b := sess.NewVolume(), sess.NewVolume()
	for _, v := range []*ultrabeam.Volume{a, b} {
		if err := sess.Run(v, ultrabeam.Frame{Bufs: tx}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Transmits != len(txs) || st.TotalBlocks != len(txs)*spec.FocalDepth {
		t.Errorf("cache keyed wrong for %d transmits: %+v", len(txs), st)
	}
	if !slices.Equal(a.Data, b.Data) || !slices.ContainsFunc(a.Data, func(v float64) bool { return v != 0 }) {
		t.Error("a repeated compound frame must repeat its non-zero volume")
	}
}

// TestFacadeServingScheduler exercises the serving surface through the
// public package: a shared store attached through Engine.NewSession,
// scheduled frames keyed by
// fingerprint onto one warm geometry, and the HTTP server round trip.
func TestFacadeServingScheduler(t *testing.T) {
	spec, tx := facadeScene(t, ultrabeam.Transmit{})
	bufs := tx[0]

	// A shared store built and attached through the facade aliases.
	cfg := ultrabeam.SessionConfig{Window: ultrabeam.Hann, Cached: true, CacheBudget: -1}
	var shared *ultrabeam.SharedDelayCache
	shared, err := spec.NewSharedCache(cfg, spec.NewExact())
	if err != nil {
		t.Fatal(err)
	}
	eng := spec.NewBeamformer(cfg.Window, ultrabeam.NappeOrder)
	c1, c2 := shared.Attach(), shared.Attach()
	s1, err := eng.NewSession(shared.Generators(), c1)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := eng.NewSession(shared.Generators(), c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v1, v2 := s1.NewVolume(), s2.NewVolume()
	frame := ultrabeam.Frame{Bufs: [][]ultrabeam.EchoBuffer{bufs}}
	if err := s1.Run(v1, frame); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(v2, frame); err != nil {
		t.Fatal(err)
	}
	for i := range v1.Data {
		if v1.Data[i] != v2.Data[i] {
			t.Fatalf("sessions sharing a store diverge at %d", i)
		}
	}
	if c1.Shared() != shared || c2.Shared() != shared {
		t.Error("attachments not backed by the facade-built store")
	}
	if st := c1.Stats(); st.Attachments != 2 {
		t.Errorf("attachment cache stats: %+v", st)
	}

	// The scheduler keys by fingerprint: both frames land on one warm
	// geometry and equal the direct session's volume.
	sched := ultrabeam.NewScheduler(ultrabeam.SchedulerConfig{})
	defer sched.Close()
	req := ultrabeam.SessionRequest{Spec: spec, Config: cfg, Arch: ultrabeam.ArchExact}
	for frame := 0; frame < 2; frame++ {
		sv, err := sched.Submit(context.Background(), req, [][]ultrabeam.EchoBuffer{bufs})
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1.Data {
			if sv.Data[i] != v1.Data[i] {
				t.Fatalf("scheduled frame %d differs from direct session at %d", frame, i)
			}
		}
	}

	// The HTTP frontend answers a health probe and stats through the
	// facade Server.
	srv, err := ultrabeam.NewServer(ultrabeam.ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rr.Code != 200 {
		t.Errorf("healthz = %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	var st ultrabeam.SchedulerStats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.GeometriesLive != 1 || st.Completed != 2 {
		t.Errorf("scheduler stats over HTTP: live=%d completed=%d", st.GeometriesLive, st.Completed)
	}
}
