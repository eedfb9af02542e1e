package beamform

import (
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// scaledFrames derives n distinct single-transmit frames from one echo set
// by scaling the samples — distinct data per frame so a bug that carries
// state across frames cannot cancel out.
func scaledFrames(bufs []rf.EchoBuffer, n int) [][]rf.EchoBuffer {
	frames := make([][]rf.EchoBuffer, n)
	for k := 0; k < n; k++ {
		scale := 1 + 0.25*float64(k)
		frame := make([]rf.EchoBuffer, len(bufs))
		for d, b := range bufs {
			s := make([]float64, len(b.Samples))
			for i, v := range b.Samples {
				s[i] = v * scale
			}
			frame[d] = rf.EchoBuffer{Samples: s}
		}
		frames[k] = frame
	}
	return frames
}

// batchSession builds a single-transmit session for one cache-budget
// variant. budget semantics: <-1 → no cache at all, -1 → unlimited, else
// the byte budget (0 = nothing resident, every block regenerated).
func batchSession(t testing.TB, eng *Engine, cfg Config, budget int64) *Session {
	t.Helper()
	p := delay.AsBlock(exactProvider(cfg), delay.Layout{
		NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY,
	})
	if budget >= -1 {
		cache, err := delaycache.New(delaycache.Config{
			Providers: []delay.BlockProvider{p}, Depths: cfg.Vol.Depth.N, BudgetBytes: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cachedSession(t, eng, cache)
	}
	sess, err := eng.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestBatchMatchesSequentialEveryPrecisionAndBudget: BeamformBatch over K
// frames must produce, frame for frame, exactly the volumes of K
// sequential BeamformInto calls on an independent session — at every
// Precision and at every cache-residency regime (uncached, full, half,
// none), across calls of several lengths and orders that reuse the i16
// echo planes.
func TestBatchMatchesSequentialEveryPrecisionAndBudget(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 30)
	frames := scaledFrames(bufs, 5)

	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	blockBytes := int64(layout.BlockLen()) * 2 // narrow store
	budgets := map[string]int64{
		"uncached": -2,
		"full":     -1,
		"half":     blockBytes * int64(cfg.Vol.Depth.N) / 2,
		"none":     0,
	}

	for _, prec := range []Precision{PrecisionFloat64, PrecisionInt16} {
		c := cfg
		c.Precision = prec
		eng := New(c)
		for name, budget := range budgets {
			// References from an independent session, one frame at a time.
			refSess := batchSession(t, eng, c, budget)
			refs := make([]*Volume, len(frames))
			for k, f := range frames {
				v, err := refSess.Beamform(f)
				if err != nil {
					t.Fatal(err)
				}
				refs[k] = v
			}
			refSess.Close()

			sess := batchSession(t, eng, c, budget)
			check := func(ks ...int) {
				t.Helper()
				dsts := make([]*Volume, len(ks))
				batch := make([][][]rf.EchoBuffer, len(ks))
				for i, k := range ks {
					dsts[i] = &Volume{Vol: c.Vol, Data: make([]float64, c.Vol.Points())}
					batch[i] = [][]rf.EchoBuffer{frames[k]}
				}
				if err := sess.BeamformBatch(dsts, batch); err != nil {
					t.Fatal(err)
				}
				for i, k := range ks {
					for j := range refs[k].Data {
						if refs[k].Data[j] != dsts[i].Data[j] {
							t.Fatalf("%v/%s: batched frame %d differs from sequential at %d: %v vs %v",
								prec, name, k, j, dsts[i].Data[j], refs[k].Data[j])
						}
					}
				}
			}
			check(0, 1)          // the first frame sizes the planes
			check(2, 3, 4)       // later frames reuse them
			check(1)             // a single frame
			check(4, 0, 2, 3, 1) // every frame, permuted
			if got := sess.Frames(); got != 11 {
				t.Errorf("%v/%s: Frames = %d, want 11", prec, name, got)
			}
			sess.Close()
		}
	}
}

// TestBatchCompoundMatchesSequential extends the contract to compound
// frames over a shared partial-budget store: a batch of K compound frames
// equals K sequential BeamformCompoundInto calls bitwise.
func TestBatchCompoundMatchesSequential(t *testing.T) {
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 24)
	txs := delay.SteeredTransmits(3, 0.004, 0.004)
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}

	for _, prec := range []Precision{PrecisionFloat64, PrecisionInt16} {
		c := cfg
		c.Precision = prec
		eng := New(c)
		provs, txBufs := compoundSetup(t, c, txs, target)

		// Three compound frames with distinct per-transmit scalings.
		frames := make([][][]rf.EchoBuffer, 3)
		for k := range frames {
			frames[k] = make([][]rf.EchoBuffer, len(txs))
			for ti := range txs {
				frames[k][ti] = scaledFrames(txBufs[ti], k+1)[k]
			}
		}

		newSess := func() *Session {
			bps := make([]delay.BlockProvider, len(provs))
			for i, p := range provs {
				bps[i] = delay.AsBlock(p, layout)
			}
			cache, err := delaycache.New(delaycache.Config{
				Providers: bps, Depths: c.Vol.Depth.N,
				BudgetBytes: int64(layout.BlockLen()) * 2 * int64(c.Vol.Depth.N*len(txs)) / 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return cachedSession(t, eng, cache)
		}

		refSess := newSess()
		refs := make([]*Volume, len(frames))
		for k, f := range frames {
			v, err := refSess.BeamformCompound(f)
			if err != nil {
				t.Fatal(err)
			}
			refs[k] = v
		}
		refSess.Close()

		sess := newSess()
		dsts := make([]*Volume, len(frames))
		for k := range dsts {
			dsts[k] = &Volume{Vol: c.Vol, Data: make([]float64, c.Vol.Points())}
		}
		if err := sess.BeamformBatch(dsts, frames); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		for k := range frames {
			for j := range refs[k].Data {
				if refs[k].Data[j] != dsts[k].Data[j] {
					t.Fatalf("%v: batched compound frame %d differs at %d", prec, k, j)
				}
			}
		}
	}
}

// TestBatchValidation pins BeamformBatch's error surface: a destination
// count that does not match the frame count is rejected before any work is
// dispatched, and frames of different windows each beamform on their own.
func TestBatchValidation(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 10)
	eng := New(cfg)
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	newVol := func() *Volume { return &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())} }
	frame := [][]rf.EchoBuffer{bufs}

	if err := sess.BeamformBatch([]*Volume{newVol()}, [][][]rf.EchoBuffer{frame, frame}); err == nil {
		t.Error("destination/frame count mismatch must fail")
	}
	if got := sess.Frames(); got != 0 {
		t.Errorf("a refused call beamformed %d frames", got)
	}
	if err := sess.BeamformBatch([]*Volume{nil}, [][][]rf.EchoBuffer{frame}); err == nil {
		t.Error("nil destination volume must fail")
	}
	if err := sess.BeamformBatch([]*Volume{newVol()}, [][][]rf.EchoBuffer{{bufs, bufs}}); err == nil {
		t.Error("a second transmit on a single-transmit session must fail")
	}

	// Frames of different windows, one after the other.
	short := make([]rf.EchoBuffer, len(bufs))
	for d, b := range bufs {
		short[d] = rf.EchoBuffer{Samples: b.Samples[:len(b.Samples)-7]}
	}
	if err := sess.BeamformBatch([]*Volume{newVol(), newVol()}, [][][]rf.EchoBuffer{frame, {short}}); err != nil {
		t.Errorf("frames of two windows: %v", err)
	}
}

// TestBatchSteadyStateAllocFree extends the steady-state criterion to
// BeamformBatch: with every block retained and reused destination volumes,
// a warm multi-frame call performs no allocation.
func TestBatchSteadyStateAllocFree(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 16)
	eng := New(cfg)
	sess := cachedSession(t, eng, fullCache(t, exactProvider(cfg), cfg.Vol.Depth.N))
	defer sess.Close()

	frames := scaledFrames(bufs, 3)
	dsts := make([]*Volume, len(frames))
	batch := make([][][]rf.EchoBuffer, len(frames))
	for k := range frames {
		dsts[k] = &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
		batch[k] = [][]rf.EchoBuffer{frames[k]}
	}
	if err := sess.BeamformBatch(dsts, batch); err != nil { // warm
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := sess.BeamformBatch(dsts, batch); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("steady-state BeamformBatch allocates %.1f objects/batch, want 0", avg)
	}
}
