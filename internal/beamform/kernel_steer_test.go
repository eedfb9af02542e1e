// Session-level tests of the fused TABLESTEER accumulate: its kernel rows
// run in the conformance matrix (conformance_test.go), against the golden
// twin — tablesteer's steerRow (FillNappe16 on the proven formats) followed
// by accumulateNappe16I16Ref. Here the session matrix's TABLESTEER rows
// run on every route the host offers (sessionRows), and the route itself
// is pinned: operand rows built, cache counters, what never takes it.
package beamform

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablesteer"
)

// TestSteerKernelBody logs which body a fused-eligible nappe runs on this
// build and host (CI greps the line). The fused bodies ride the i16
// kernel's probes: the tile body runs exactly where the i16 body is the
// AVX-512 tile body, the gather body exactly where it is the AVX2 one.
func TestSteerKernelBody(t *testing.T) {
	body := steerKernelBody()
	if body != "avx512" && body != "avx2" && body != "ref" {
		t.Fatalf("unknown fused steer body %q", body)
	}
	if body != i16KernelBody() {
		t.Fatalf("fused steer body %q beside i16 body %q: each fused body must run exactly where its i16 body does", body, i16KernelBody())
	}
	t.Logf("fused steer body: %s", body)
}

// steerProvider builds the fixed-datapath TABLESTEER generator of cfg's
// volume and aperture.
func steerProvider(cfg Config, ref, corr fixed.Format) *tablesteer.Provider {
	p := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: cfg.Conv, RefFmt: ref, CorrFmt: corr})
	p.UseFixed = true
	return p
}

// TestFusedSteerNoAVX2Route is the TABLESTEER session row of the matrix
// with both probes cleared — fill-then-accumulate, no operand rows — and on
// the host's route, the fused body: both == the twin, plane- and buffer-fed.
func TestFusedSteerNoAVX2Route(t *testing.T) { sessionRows(t, "steer", "ref", "host") }

// unfusedProvider hides a generator's delay.SteerSource, so a session over
// it fills blocks: the golden twin's route.
type unfusedProvider struct{ delay.BlockProvider }

// countingSteer counts the fused route's per-nappe operand builds — the
// route pin: one call per non-resident (nappe, transmit) per frame where the
// fused body runs, none anywhere else — and the block fills.
type countingSteer struct {
	*tablesteer.Provider
	rows, fills atomic.Int64
}

func (c *countingSteer) SteerRows(id int, ry []int32) {
	c.rows.Add(1)
	c.Provider.SteerRows(id, ry)
}

func (c *countingSteer) FillNappe16(id int, dst delay.Block16) {
	c.fills.Add(1)
	c.Provider.FillNappe16(id, dst)
}

// steerCompound is a TABLESTEER compound setup: the psf aperture over a
// small volume, nTx axial transmits (the folded table needs on-axis
// origins), one counting generator per transmit and each transmit's echoes.
type steerCompound struct {
	cfg   Config
	gens  []*countingSteer
	bufs  [][]rf.EchoBuffer // [transmit][element]
	win   int
	depth int
}

func newSteerCompound(t *testing.T, nTx int, prec Precision) *steerCompound {
	t.Helper()
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 24)
	cfg.Precision = prec
	txs := delay.AxialTransmits(nTx, -0.002, -0.008)
	base := steerProvider(cfg, fixed.U13p5, fixed.S13p4)
	sc := &steerCompound{cfg: cfg, win: 1400, depth: cfg.Vol.Depth.N}
	for _, tx := range txs {
		p, err := base.WithTransmit(tx)
		if err != nil {
			t.Fatal(err)
		}
		sc.gens = append(sc.gens, &countingSteer{Provider: p.(*tablesteer.Provider)})
		bufs, err := rf.Synthesize(rf.Config{
			Arr: cfg.Arr, Conv: cfg.Conv, Pulse: rf.NewPulse(4e6, 4e6),
			Origin: tx.Origin, BufSamples: sc.win,
		}, rf.PointPhantom(target))
		if err != nil {
			t.Fatal(err)
		}
		sc.bufs = append(sc.bufs, bufs)
	}
	return sc
}

// session builds a session over the transmit set: fused (the generators
// themselves) or unfused (the same generators behind unfusedProvider), and
// uncached (budget < -1) or through one delaycache store of that budget.
func (sc *steerCompound) session(t *testing.T, fused bool, budget int64) (*Session, *delaycache.Cache) {
	t.Helper()
	blocks := make([]delay.BlockProvider, len(sc.gens))
	for i, g := range sc.gens {
		blocks[i] = g
		if !fused {
			blocks[i] = unfusedProvider{g}
		}
	}
	var cache *delaycache.Cache
	if budget >= -1 {
		store, err := delaycache.NewShared(delaycache.Config{Providers: blocks, Depths: sc.depth, BudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		cache = store.Attach()
	}
	sess, err := New(sc.cfg).NewSession(blocks, cache)
	if err != nil {
		t.Fatal(err)
	}
	return sess, cache
}

// frames returns n compound frames, each transmit's echoes scaled per
// frame.
func (sc *steerCompound) frames(n int) [][][]rf.EchoBuffer {
	bufs := make([][][]rf.EchoBuffer, n)
	for k := range bufs {
		for _, tx := range sc.bufs {
			bufs[k] = append(bufs[k], scaledEchoes(tx, 1+0.25*float64(k), sc.win))
		}
	}
	return bufs
}

func (sc *steerCompound) rows() int64 {
	n := int64(0)
	for _, g := range sc.gens {
		n += g.rows.Load()
	}
	return n
}

// sameVolumes fails on the first voxel where got differs from want in its
// bits, or where every volume is all zero (volumesDiffer).
func sameVolumes(t *testing.T, name string, got, want []*Volume) {
	t.Helper()
	if msg := volumesDiffer(got, want); msg != "" {
		t.Fatalf("%s %s", name, msg)
	}
}

func volumesDiffer(got, want []*Volume) string {
	peak := 0.0
	for k := range want {
		for i, w := range want[k].Data {
			if g := got[k].Data[i]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("frame %d voxel %d: %v != %v", k, i, g, w)
			}
			peak = max(peak, math.Abs(w))
		}
	}
	if peak == 0 {
		return "all-zero volumes prove nothing"
	}
	return ""
}

// TestFusedSteerSessionsMatchUnfused is the TABLESTEER session row on
// every fused route the host offers: uncached and half-resident sessions,
// buffer- and plane-fed, == the twin the unfused blocks give, with the
// route pin that the fused session builds operand rows once per
// non-resident (nappe, transmit) per frame where a fused body runs and
// never otherwise (sessionRows). TestFusedSteerCountsOneMissPerNonResident
// holds its cache counters.
func TestFusedSteerSessionsMatchUnfused(t *testing.T) { sessionRows(t, "steer", "avx512", "avx2") }

// TestFusedSteerCountsOneMissPerNonResident: through a half-budget cache, an
// i16 TABLESTEER session asks the cache once per (transmit, nappe) per
// frame, so a 3-frame call asks 3× per pair. Each fused non-resident pair
// counts exactly one miss per frame, on the attachment and on the store,
// and fills no block. Each resident pair counts one fill on the first frame
// of the first call and one hit on every later frame.
func TestFusedSteerCountsOneMissPerNonResident(t *testing.T) {
	sc := newSteerCompound(t, 2, PrecisionInt16)
	bufs := sc.frames(3)
	blockBytes := int64(sc.cfg.Vol.Theta.N*sc.cfg.Vol.Phi.N*len(sc.bufs[0])) * 2
	resident := int64(sc.depth * len(sc.gens) / 2)
	sess, cache := sc.session(t, true, resident*blockBytes)
	defer sess.Close()
	nonResident := int64(sc.depth*len(sc.gens)) - resident
	dsts := []*Volume{sess.NewVolume(), sess.NewVolume(), sess.NewVolume()}
	frames := int64(len(dsts))
	for batch := 0; batch < 3; batch++ {
		before, rows := cache.Stats(), sc.rows()
		if err := sess.BeamformBatch(dsts, bufs); err != nil {
			t.Fatal(err)
		}
		after := cache.Stats()
		wantMisses, wantHits := frames*nonResident, frames*resident
		if batch == 0 {
			wantMisses, wantHits = frames*nonResident+resident, (frames-1)*resident
		}
		if after.Misses-before.Misses != wantMisses || after.Hits-before.Hits != wantHits ||
			after.Fills != resident || cache.Shared().Stats().Misses != after.Misses {
			t.Errorf("batch %d: stats %+v → %+v, want %d more misses, %d more hits, %d fills",
				batch, before, after, wantMisses, wantHits, resident)
		}
		if fusedSteer() && sc.rows()-rows != frames*nonResident {
			t.Errorf("batch %d: %d fused operand builds, want %d", batch, sc.rows()-rows, frames*nonResident)
		}
	}
}

// TestFusedSteerRoutes pins what never takes the fused route: the float64
// precision, TABLESTEER's float datapath and the unproven formats that fill
// through the scalar law (no operands at all) — each session builds no
// operand rows and equals its block-filling twin.
func TestFusedSteerRoutes(t *testing.T) {
	for _, prec := range []Precision{PrecisionFloat64} {
		sc := newSteerCompound(t, 2, prec)
		bufs := sc.frames(1)
		run := func(fused bool) []*Volume {
			sess, _ := sc.session(t, fused, -2)
			defer sess.Close()
			dst := []*Volume{sess.NewVolume()}
			if err := sess.BeamformBatch(dst, bufs); err != nil {
				t.Fatal(err)
			}
			return dst
		}
		sameVolumes(t, prec.String(), run(true), run(false))
		if n := sc.rows(); n != 0 {
			t.Errorf("%s session built %d fused operand rows", prec, n)
		}
	}

	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 5, 3, 4)
	float := steerProvider(cfg, fixed.U13p5, fixed.S13p4)
	float.UseFixed = false
	unproven := steerProvider(cfg, fixed.Format{IntBits: 16, FracBits: 3}, fixed.S13p4)
	for name, p := range map[string]*tablesteer.Provider{"float datapath": float, "scalar-law u16.3": unproven} {
		if p.SteerOperands() != nil {
			t.Errorf("%s offers fused operands", name)
		}
		c := &countingSteer{Provider: p}
		cfg.Precision = PrecisionInt16
		if _, err := New(cfg).Beamform(c, bufs); err != nil {
			t.Fatal(err)
		}
		if n := c.rows.Load(); n != 0 {
			t.Errorf("%s: i16 session built %d fused operand rows", name, n)
		}
	}
}
