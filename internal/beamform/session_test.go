package beamform

import (
	"sync"
	"sync/atomic"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
)

func TestSessionMatchesScalarReference(t *testing.T) {
	// The session (uncached and over a full-budget delay cache) joins the
	// path-invariance family: bit-identical to BeamformScalar.
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	eng := New(cfg)
	p := exactProvider(cfg)
	ref, err := eng.BeamformScalar(p, bufs)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eng.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]*Session{
		"plain":    plain,
		"retained": cachedSession(t, eng, fullCache(t, p, cfg.Vol.Depth.N)),
	}
	for name, sess := range sessions {
		for frame := 0; frame < 3; frame++ { // repeated frames stay identical
			vol, err := sess.Beamform(bufs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Data {
				if ref.Data[i] != vol.Data[i] {
					t.Fatalf("%s frame %d: differs at %d: %v vs %v",
						name, frame, i, vol.Data[i], ref.Data[i])
				}
			}
		}
		if sess.Frames() != 3 {
			t.Errorf("%s: Frames = %d, want 3", name, sess.Frames())
		}
		sess.Close()
	}
}

func TestSessionRetainedSourceSkipsGeneration(t *testing.T) {
	// With every block resident, a warmed full-budget cache must serve
	// later frames without any fill call reaching the generator.
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	counted := &countingBlock{BlockProvider: exactProvider(cfg)}
	cache := fullCache(t, counted, cfg.Vol.Depth.N)
	cache.Warm() // warm outside the session
	warm := counted.calls.Load()
	sess := cachedSession(t, eng, cache)
	defer sess.Close()
	if _, err := sess.Beamform(bufs); err != nil {
		t.Fatal(err)
	}
	if calls := counted.calls.Load(); calls != warm {
		t.Errorf("generator ran %d more times after warm-up", calls-warm)
	}
}

// countingBlock counts generator runs; session workers fill concurrently.
type countingBlock struct {
	delay.BlockProvider
	calls atomic.Int64
}

func (c *countingBlock) FillNappe16(id int, dst delay.Block16) {
	c.calls.Add(1)
	c.BlockProvider.FillNappe16(id, dst)
}

func TestSessionBeamformIntoValidation(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	if _, err := eng.NewSession(nil); err == nil {
		t.Error("nil provider must fail")
	}
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	out := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	if err := sess.BeamformInto(out, bufs[:3]); err == nil {
		t.Error("wrong buffer count must fail")
	}
	if err := sess.BeamformInto(nil, bufs); err == nil {
		t.Error("nil destination must fail")
	}
	if err := sess.BeamformInto(&Volume{Vol: cfg.Vol, Data: nil}, bufs); err == nil {
		t.Error("missized destination must fail")
	}
	if err := sess.BeamformInto(&Volume{Data: make([]float64, cfg.Vol.Points())}, bufs); err == nil {
		t.Error("destination with wrong grid must fail")
	}
	if err := sess.BeamformInto(out, bufs); err != nil {
		t.Errorf("valid frame: %v", err)
	}
	sess.Close()
	sess.Close() // idempotent
	if err := sess.BeamformInto(out, bufs); err == nil {
		t.Error("closed session must fail")
	}
	if _, err := sess.Beamform(bufs); err == nil {
		t.Error("closed session Beamform must fail")
	}
}

func TestSessionBeamformFrames(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	vols := make([]*Volume, 3)
	for f := range vols {
		vols[f] = sess.NewVolume()
		if err := sess.BeamformInto(vols[f], bufs); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	for f := 1; f < 3; f++ {
		for i := range vols[0].Data {
			if vols[0].Data[i] != vols[f].Data[i] {
				t.Fatalf("static cine frame %d differs at %d", f, i)
			}
		}
	}
	if err := sess.BeamformInto(sess.NewVolume(), bufs[:1]); err == nil {
		t.Error("bad frame must fail")
	}
}

func TestSessionStream(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	want, err := eng.BeamformScalar(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	// One reused output volume: each frame overwrites the last.
	v := sess.NewVolume()
	for f := 0; f < 4; f++ {
		if err := sess.BeamformInto(v, bufs); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		for i := range want.Data {
			if want.Data[i] != v.Data[i] {
				t.Fatalf("frame %d differs at %d", f, i)
			}
		}
	}
	if sess.Frames() != 4 {
		t.Errorf("Frames = %d, want 4", sess.Frames())
	}
}

func TestSessionWorkerCountInvariance(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 11, 1, 60)
	var ref []float64
	for _, workers := range []int{1, 3, 8} {
		c := cfg
		c.Workers = workers
		sess, err := New(c).NewSession(exactProvider(cfg))
		if err != nil {
			t.Fatal(err)
		}
		vol, err := sess.Beamform(bufs)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vol.Data
			continue
		}
		for i := range ref {
			if ref[i] != vol.Data[i] {
				t.Fatalf("workers=%d diverges at %d", workers, i)
			}
		}
	}
}

func TestSessionSteadyStateAllocFree(t *testing.T) {
	// The ISSUE 2 acceptance criterion: once the provider no longer
	// generates (all blocks retained), BeamformInto performs no allocation.
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 16)
	eng := New(cfg)
	sess := cachedSession(t, eng, fullCache(t, exactProvider(cfg), cfg.Vol.Depth.N))
	defer sess.Close()
	out := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	if err := sess.BeamformInto(out, bufs); err != nil { // warm
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := sess.BeamformInto(out, bufs); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("steady-state BeamformInto allocates %.1f objects/frame, want 0", avg)
	}
}

// TestSessionScrapeWhileStreaming is the /stats contract: Frames and
// CacheStats may be called from another goroutine while frames are in
// flight. Run under -race, any unsynchronized counter access fails here.
func TestSessionScrapeWhileStreaming(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	eng := New(cfg)
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	sess := cachedSession(t, eng, fullCache(t, delay.AsBlock(exactProvider(cfg), layout), cfg.Vol.Depth.N))
	defer sess.Close()

	const frames = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the scraper: hammer the stats surface until streaming ends
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := sess.Frames(); n < 0 || n > frames {
				t.Errorf("Frames = %d out of [0, %d]", n, frames)
				return
			}
			st, ok := sess.CacheStats()
			if !ok {
				t.Error("CacheStats: session over a cache reported no stats source")
				return
			}
			if st.Hits < 0 || st.Misses < 0 {
				t.Errorf("negative cache counters: %+v", st)
				return
			}
		}
	}()
	v := sess.NewVolume()
	var err error
	for f := 0; f < frames && err == nil; f++ {
		err = sess.BeamformInto(v, bufs)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Frames() != frames {
		t.Errorf("Frames = %d, want %d", sess.Frames(), frames)
	}
	st, ok := sess.CacheStats()
	if !ok || st.Hits+st.Misses == 0 {
		t.Errorf("CacheStats after streaming: ok=%v stats=%+v", ok, st)
	}

	// A session over a non-caching provider reports no stats source.
	plain, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, ok := plain.CacheStats(); ok {
		t.Error("CacheStats: plain session claims a cache")
	}
}
