package ultrabeam_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
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

func TestFacadeSessionAndCache(t *testing.T) {
	spec := ultrabeam.ReducedSpec()
	spec.ElemX, spec.ElemY = 8, 8
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 9, 3, 10
	spec.DepthLambda = 60
	bufs, err := rf.Synthesize(rf.Config{
		Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
		BufSamples: spec.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
	if err != nil {
		t.Fatal(err)
	}
	var sess *ultrabeam.Session
	var cache *ultrabeam.DelayCache
	sess, cache, err = spec.NewCachedSession(ultrabeam.Hann, spec.NewExact(), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	vols := make([]*ultrabeam.Volume, 3)
	var warm ultrabeam.CacheStats // after frame 0, which fills the cache
	for f := range vols {
		vols[f] = sess.NewVolume()
		if err := sess.BeamformInto(vols[f], bufs); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if f == 0 {
			warm = cache.Stats()
		}
	}
	for f := 1; f < len(vols); f++ {
		for i := range vols[0].Data {
			if vols[0].Data[i] != vols[f].Data[i] {
				t.Fatalf("static cine frame %d differs at %d", f, i)
			}
		}
	}
	var st ultrabeam.CacheStats = cache.Stats()
	if !cache.Shared().FullResidency() || st.Hits == 0 || st.Misses != warm.Misses {
		t.Errorf("cache did not amortize: frame 0 %v, after frame 2 %v", warm, st)
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
	spec := ultrabeam.ReducedSpec()
	spec.ElemX, spec.ElemY = 8, 8
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 9, 3, 10
	spec.DepthLambda = 60
	bufs, err := rf.Synthesize(rf.Config{
		Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
		BufSamples: spec.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
	if err != nil {
		t.Fatal(err)
	}
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
		vol, err := sess.Beamform(bufs)
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

// TestFacadeCompoundInvariance is the compounding correctness contract at
// the facade: an N-transmit compounded volume equals the explicit sum of N
// single-transmit volumes — bitwise at every Precision (the per-voxel
// accumulation order is identical) — and holds at every cache budget, from
// nothing resident through partial prefixes to full (transmit, nappe)
// residency. The i16 compound additionally clears the ≥60 dB PSNR gate
// against the float64 golden compound.
func TestFacadeCompoundInvariance(t *testing.T) {
	spec := ultrabeam.ReducedSpec()
	spec.ElemX, spec.ElemY = 8, 8
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 9, 3, 10
	spec.DepthLambda = 60
	txs := ultrabeam.SteeredTransmits(3, spec.Aperture()/2, spec.Aperture()/2)
	txBufs := make([][]ultrabeam.EchoBuffer, len(txs))
	for i, tx := range txs {
		bufs, err := rf.Synthesize(rf.Config{
			Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
			Origin: tx.Origin, BufSamples: spec.EchoBufferSamples(),
		}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
		if err != nil {
			t.Fatal(err)
		}
		txBufs[i] = bufs
	}
	blockBytes := int64(spec.FocalTheta*spec.FocalPhi*spec.ElemX*spec.ElemY) * 2
	budgets := []struct {
		name  string
		bytes int64
	}{
		{"nothing resident", 0},
		{"half the transmit set", blockBytes * int64(spec.FocalDepth*len(txs)) / 2},
		{"full residency", -1},
	}
	var golden *ultrabeam.Volume
	for _, prec := range []ultrabeam.Precision{ultrabeam.PrecisionFloat64, ultrabeam.PrecisionInt16} {
		// The explicit per-transmit sum: one uncached single-transmit session
		// per insonification, volumes summed in transmit order.
		ref := &ultrabeam.Volume{Vol: spec.Volume(), Data: make([]float64, spec.Points())}
		for ti, tx := range txs {
			sess, _, err := spec.NewSessionConfig(ultrabeam.SessionConfig{
				Window: ultrabeam.Hann, Precision: prec,
				Transmits: []ultrabeam.Transmit{tx},
			}, spec.NewTableFree())
			if err != nil {
				t.Fatal(err)
			}
			vol, err := sess.Beamform(txBufs[ti])
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vol.Data {
				ref.Data[i] += v
			}
		}
		for _, b := range budgets {
			sess, cache, err := spec.NewSessionConfig(ultrabeam.SessionConfig{
				Window: ultrabeam.Hann, Precision: prec,
				Cached: true, CacheBudget: b.bytes,
				Transmits: txs,
			}, spec.NewTableFree())
			if err != nil {
				t.Fatal(err)
			}
			vol, err := sess.BeamformCompound(txBufs)
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.Transmits != len(txs) {
				t.Fatalf("%v %s: cache transmits = %d", prec, b.name, st.Transmits)
			}
			for i := range ref.Data {
				if ref.Data[i] != vol.Data[i] {
					t.Fatalf("%v %s: compound differs from explicit sum at %d: %v vs %v",
						prec, b.name, i, vol.Data[i], ref.Data[i])
				}
			}
		}
		if prec == ultrabeam.PrecisionFloat64 {
			golden = ref
			continue
		}
		psnr, err := beamform.PeakSignalRatio(golden, ref)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 60 {
			t.Errorf("%v compound PSNR = %.1f dB through the facade", prec, psnr)
		}
	}
}

// TestFacadeServingScheduler exercises the serving surface through the
// public package: a shared store attached through NewSessionGenerators,
// scheduled frames keyed by
// fingerprint onto one warm geometry, and the HTTP server round trip.
func TestFacadeServingScheduler(t *testing.T) {
	spec := ultrabeam.ReducedSpec()
	spec.ElemX, spec.ElemY = 8, 8
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 9, 3, 10
	bufs, err := rf.Synthesize(rf.Config{
		Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
		BufSamples: spec.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
	if err != nil {
		t.Fatal(err)
	}

	// A shared store built and attached through the facade aliases.
	cfg := ultrabeam.SessionConfig{Window: ultrabeam.Hann, Cached: true, CacheBudget: -1}
	var shared *ultrabeam.SharedDelayCache
	shared, err = spec.NewSharedCache(cfg, spec.NewExact())
	if err != nil {
		t.Fatal(err)
	}
	eng := spec.NewBeamformer(cfg.Window, ultrabeam.NappeOrder)
	c1, c2 := shared.Attach(), shared.Attach()
	s1, err := eng.NewSessionGenerators(shared.Generators(), c1)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := eng.NewSessionGenerators(shared.Generators(), c2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v1, err := s1.Beamform(bufs)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Beamform(bufs)
	if err != nil {
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
	if st, ok := s1.CacheStats(); !ok || st.Attachments != 2 {
		t.Errorf("session cache stats: ok=%v %+v", ok, st)
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
