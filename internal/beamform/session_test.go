package beamform

import (
	"sync"
	"sync/atomic"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// retainingSource wraps a BlockProvider with a NappeSource that retains
// every block — a minimal in-package stand-in for delaycache.Cache, so the
// session's resident fast path is exercised without an import cycle.
type retainingSource struct {
	delay.BlockProvider
	mu     sync.Mutex
	blocks map[int][]float64
}

func newRetainingSource(bp delay.BlockProvider) *retainingSource {
	return &retainingSource{BlockProvider: bp, blocks: map[int][]float64{}}
}

func (r *retainingSource) Nappe(id int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if blk, ok := r.blocks[id]; ok {
		return blk
	}
	blk := make([]float64, r.Layout().BlockLen())
	r.FillNappe(id, blk)
	r.blocks[id] = blk
	return blk
}

func TestSessionMatchesScalarReference(t *testing.T) {
	// The session (uncached and with a retaining NappeSource) joins the
	// path-invariance family: bit-identical to BeamformScalar.
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	eng := New(cfg)
	p := exactProvider(cfg)
	ref, err := eng.BeamformScalar(p, bufs)
	if err != nil {
		t.Fatal(err)
	}
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	sources := map[string]delay.Provider{
		"plain":    p,
		"retained": newRetainingSource(delay.AsBlock(p, layout)),
	}
	for name, prov := range sources {
		sess, err := eng.NewSession(prov)
		if err != nil {
			t.Fatal(err)
		}
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
	// With every block resident, a warmed retaining source must serve later
	// frames without any FillNappe call reaching the generator.
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	counted := &countingBlock{BlockProvider: delay.AsBlock(exactProvider(cfg), layout)}
	src := newRetainingSource(counted)
	for id := 0; id < cfg.Vol.Depth.N; id++ { // warm outside the session
		src.Nappe(id)
	}
	warm := counted.calls.Load()
	sess, err := eng.NewSession(src)
	if err != nil {
		t.Fatal(err)
	}
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

func (c *countingBlock) FillNappe(id int, dst []float64) {
	c.calls.Add(1)
	c.BlockProvider.FillNappe(id, dst)
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
	vols, err := sess.BeamformFrames([][]rf.EchoBuffer{bufs, bufs, bufs})
	if err != nil {
		t.Fatal(err)
	}
	if len(vols) != 3 {
		t.Fatalf("got %d volumes", len(vols))
	}
	for f := 1; f < 3; f++ {
		for i := range vols[0].Data {
			if vols[0].Data[i] != vols[f].Data[i] {
				t.Fatalf("static cine frame %d differs at %d", f, i)
			}
		}
	}
	if _, err := sess.BeamformFrames([][]rf.EchoBuffer{bufs[:1]}); err == nil {
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
	frames := 0
	err = sess.Stream(4,
		func(int) ([]rf.EchoBuffer, error) { return bufs, nil },
		func(f int, v *Volume) error {
			frames++
			for i := range want.Data {
				if want.Data[i] != v.Data[i] {
					t.Fatalf("frame %d differs at %d", f, i)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 4 {
		t.Errorf("sink saw %d frames, want 4", frames)
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
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	src := newRetainingSource(delay.AsBlock(exactProvider(cfg), layout))
	sess, err := eng.NewSession(src)
	if err != nil {
		t.Fatal(err)
	}
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
	cache, err := delaycache.New(delaycache.Config{
		Provider: delay.AsBlock(exactProvider(cfg), layout),
		Depths:   cfg.Vol.Depth.N, BudgetBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(cache)
	if err != nil {
		t.Fatal(err)
	}
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
	err = sess.Stream(frames,
		func(int) ([]rf.EchoBuffer, error) { return bufs, nil },
		func(int, *Volume) error { return nil })
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
