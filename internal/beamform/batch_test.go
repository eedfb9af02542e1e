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
// by scaling the samples — distinct data per frame so a batching bug that
// crosses frame boundaries cannot cancel out.
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

// TestBatchMatchesSequentialEveryPrecisionAndBudget is the batching
// bit-identity contract (ISSUE 6 acceptance): BeamformBatch over K frames
// must produce, frame for frame, exactly the volumes of K sequential
// BeamformInto calls — at every Precision and at every cache-residency
// regime (uncached, full, half, none), and across batch sizes that force
// the i16 echo planes to grow and then shrink-reuse.
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
			check(0, 1)          // first batch sizes the planes
			check(2, 3, 4)       // grow
			check(1)             // shrink: reuse the larger plane set
			check(4, 0, 2, 3, 1) // permuted full batch
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

// TestBatchAmortizesGeneration pins the mechanism the scheduler banks on:
// with nothing resident, a K-frame batch runs the delay generator once per
// (depth, transmit) — not once per frame.
func TestBatchAmortizesGeneration(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	counted := &countingBlock{BlockProvider: delay.AsBlock(exactProvider(cfg), layout)}
	sess, err := eng.NewSession(counted)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	frames := scaledFrames(bufs, 3)
	dsts := make([]*Volume, len(frames))
	batch := make([][][]rf.EchoBuffer, len(frames))
	for k := range frames {
		dsts[k] = &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
		batch[k] = [][]rf.EchoBuffer{frames[k]}
	}
	if err := sess.BeamformBatch(dsts, batch); err != nil {
		t.Fatal(err)
	}
	if calls := counted.calls.Load(); calls != int64(cfg.Vol.Depth.N) {
		t.Errorf("batch of 3 ran the generator %d times, want once per depth slice (%d)",
			calls, cfg.Vol.Depth.N)
	}
}

// TestBatchValidation pins the batch-shape contract: empty batches,
// mismatched destination counts, shared destinations and mixed frame
// shapes are rejected before any work is dispatched.
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

	if err := sess.BeamformBatch(nil, nil); err == nil {
		t.Error("empty batch must fail")
	}
	if err := sess.BeamformBatch([]*Volume{newVol()}, [][][]rf.EchoBuffer{frame, frame}); err == nil {
		t.Error("destination/frame count mismatch must fail")
	}
	shared := newVol()
	if err := sess.BeamformBatch([]*Volume{shared, shared}, [][][]rf.EchoBuffer{frame, frame}); err == nil {
		t.Error("shared destination volume must fail")
	}

	// Mixed window lengths across frames: each alone is valid, the batch
	// must refuse to fuse them.
	short := make([]rf.EchoBuffer, len(bufs))
	for d, b := range bufs {
		short[d] = rf.EchoBuffer{Samples: b.Samples[:len(b.Samples)-7]}
	}
	if err := sess.BeamformBatch(
		[]*Volume{newVol(), newVol()},
		[][][]rf.EchoBuffer{frame, {short}},
	); err == nil {
		t.Error("mixed frame shapes in one batch must fail")
	}
	// Each shape beamforms fine on its own.
	if err := sess.BeamformBatch([]*Volume{newVol()}, [][][]rf.EchoBuffer{{short}}); err != nil {
		t.Errorf("short-window frame alone: %v", err)
	}
}

// TestBatchSteadyStateAllocFree extends the ISSUE 2 criterion to batches:
// with every block retained and reused destination volumes, a steady-state
// batch dispatch performs no allocation.
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
