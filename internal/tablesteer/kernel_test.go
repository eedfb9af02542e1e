package tablesteer

import (
	"math"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// formatPairs are the (reference, correction) formats the kernel tests
// cover, with the route narrowProven must pick from the formats alone.
var formatPairs = []struct {
	name      string
	ref, corr fixed.Format
	narrow    bool
}{
	{"18b", fixed.U13p5, fixed.S13p4, true},
	{"14b", fixed.U13p1, fixed.Format{IntBits: 9, FracBits: 4, Signed: true}, true},
	{"corr-finer", fixed.U13p1, fixed.S13p4, true},
	// No fractional bit: nothing to round away, the biased shift has no half.
	{"frac0", fixed.U13p0, fixed.S13p0, false},
	// 2^16 + 2·2^13 samples overruns int16: a slot may saturate.
	{"u16.3", fixed.Format{IntBits: 16, FracBits: 3}, fixed.S13p4, false},
	// 2^13 + 2·2^14 = 40 960 > 32 767 through the corrections alone.
	{"s14.4", fixed.U13p5, fixed.Format{IntBits: 14, FracBits: 4, Signed: true}, false},
	// In int16 range, but 24 576·2^20 does not fit int32.
	{"u13.20", fixed.Format{IntBits: 13, FracBits: 20}, fixed.S13p4, false},
}

func TestNarrowProvenFromFormatsAlone(t *testing.T) {
	for _, f := range formatPairs {
		if got := narrowProven(f.ref, f.corr); got != f.narrow {
			t.Errorf("%s: narrowProven = %v, want %v", f.name, got, f.narrow)
		}
		p := New(Config{
			Vol: scan.NewVolume(1, 1, 0.05, 2, 2, 2), Arr: xdcr.NewArray(2, 2, 0.2e-3), Conv: conv,
			RefFmt: f.ref, CorrFmt: f.corr,
		})
		if (p.narrow != nil) != f.narrow || (p.fused != nil) != f.narrow {
			t.Errorf("%s: operands narrow=%v fused=%v, want both %v",
				f.name, p.narrow != nil, p.fused != nil, f.narrow)
		}
	}
}

// TestUnprovenRouteSaturates pins the unproven-format route — the scalar
// law — where Index16 saturates: a u16.3 reference holds the > 40 000-sample
// delays of a 1 m volume at 32 MHz, so deep nappes must sit at MaxInt16
// exactly where Index16 puts them while shallow ones do not.
func TestUnprovenRouteSaturates(t *testing.T) {
	p := New(Config{
		Vol:    scan.NewVolume(geom.Radians(73), geom.Radians(40), 1.0, 4, 3, 9),
		Arr:    xdcr.NewArray(6, 5, 0.2e-3),
		Conv:   conv,
		RefFmt: fixed.Format{IntBits: 16, FracBits: 3}, CorrFmt: fixed.S13p4,
	})
	p.UseFixed = true
	if p.narrow != nil || p.Ref.SatCount != 0 {
		t.Fatalf("want the unproven route with an unsaturated table, got narrow=%v SatCount=%d", p.narrow != nil, p.Ref.SatCount)
	}
	lo, hi := conform(t, 1, p)
	if hi != math.MaxInt16 || lo >= math.MaxInt16/2 {
		t.Fatalf("index range [%d, %d] does not straddle saturation", lo, hi)
	}
}

// TestSteerRowRoundingEdges feeds the row kernel hand-built words, through
// the same alignment New applies, against the spec's own arithmetic
// (alignedSum, Ldexp, Index16): sums exactly on ±k.5 ties and on integers,
// one aligned LSB either side of each, sums driven negative by either
// correction, and the format extremes that realize narrowProven's worst
// case on both rails.
func TestSteerRowRoundingEdges(t *testing.T) {
	type words struct{ ref, x, y int64 }
	for _, f := range formatPairs {
		if !f.narrow {
			continue
		}
		frac := max(f.ref.FracBits, f.corr.FracBits)
		rs, cs := uint(frac-f.ref.FracBits), uint(frac-f.corr.FracBits)
		refMax := int64(1)<<(f.ref.IntBits+f.ref.FracBits) - 1
		corrMax := int64(1)<<(f.corr.IntBits+f.corr.FracBits) - 1
		// reach returns in-format words whose aligned sum is target: a
		// reference just below it (0 for a negative one), the remainder
		// split over the two corrections. One of rs, cs is zero, so that
		// operand absorbs the bits the coarser grid cannot express.
		reach := func(target int64) words {
			ref := max(target>>rs-5, 0)
			if cs > 0 {
				ref += (target - ref) & (1<<cs - 1)
			}
			corr := (target - ref<<rs) >> cs
			if sum, _ := alignedSum(ref, corr, f.ref.FracBits, f.corr.FracBits); sum != target {
				t.Fatalf("%s: reach(%d) built aligned sum %d", f.name, target, sum)
			}
			return words{ref, corr / 2, corr - corr/2}
		}
		cases := []words{
			{0, 0, 0}, {refMax, corrMax, corrMax}, {0, -corrMax - 1, -corrMax - 1},
			{refMax, -corrMax - 1, corrMax}, {5, -corrMax - 1, corrMax}, {5, corrMax, -corrMax - 1},
		}
		half := int64(1) << (frac - 1)
		for _, k := range []int64{0, 1, 2, 37, 300, 8000} {
			for _, sign := range []int64{1, -1} {
				if k == 8000 && sign < 0 {
					continue // beyond the two s9.4 corrections' reach
				}
				for d := int64(-1); d <= 1; d++ {
					cases = append(cases, reach(sign*(k<<frac+half)+d), reach(sign*(k<<frac)+d))
				}
			}
		}
		negatives, row := 0, make([]int16, 1)
		for _, c := range cases {
			if c.ref < 0 || c.ref > refMax || min(c.x, c.y) < -corrMax-1 || max(c.x, c.y) > corrMax {
				t.Fatalf("%s: words %+v are outside their formats", f.name, c)
			}
			sum, sfrac := alignedSum(c.ref, c.x+c.y, f.ref.FracBits, f.corr.FracBits)
			want := delay.Index16(math.Ldexp(float64(sum), -sfrac))
			steerRow(row, []int32{int32(c.ref << rs)}, []int32{int32(c.x << cs)}, int32(c.y<<cs), int32(half), uint(frac))
			if row[0] != want {
				t.Errorf("%s %+v (aligned sum %d): row %d != Index16 %d", f.name, c, sum, row[0], want)
			}
			if sum < 0 {
				negatives++
			}
		}
		if negatives < 30 {
			t.Errorf("%s: only %d negative sums exercised", f.name, negatives)
		}
	}
}

// TestWithTransmitSharesCorrections: the correction tables encode only the
// receive-side plane, so a derived transmit must hold the very same tables —
// raw and pre-aligned — and rebuild only its reference, while every delay
// equals a provider built from scratch at that origin.
func TestWithTransmitSharesCorrections(t *testing.T) {
	odd := blockSetup(18).Cfg
	odd.Vol = scan.NewVolume(geom.Radians(60), geom.Radians(60), 0.06, 7, 5, 12)
	origins := []float64{0, -3e-3, 2.5e-3, -5e-3, -10e-3}
	for _, f := range formatPairs {
		for _, cfg := range []Config{blockSetup(18).Cfg, odd} {
			cfg.RefFmt, cfg.CorrFmt = f.ref, f.corr
			p := New(cfg)
			p.UseFixed = true
			for _, z := range origins {
				dp, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: z}})
				if err != nil {
					t.Fatal(err)
				}
				q := dp.(*Provider)
				if q.Corr != p.Corr || q.Ref == p.Ref {
					t.Fatalf("%s z=%v: Corr shared=%v Ref rebuilt=%v, want both", f.name, z, q.Corr == p.Corr, q.Ref != p.Ref)
				}
				if f.narrow && !sharesCorrections(p.narrow, q.narrow) || !f.narrow && q.narrow != nil {
					t.Fatalf("%s z=%v: aligned corrections not shared, or reference not rebuilt", f.name, z)
				}
				cfg.OriginZ = z
				fresh := New(cfg)
				fresh.UseFixed = true
				l := q.Layout()
				got, want := make(delay.Block16, l.BlockLen()), make(delay.Block16, l.BlockLen())
				for id := 0; id < cfg.Vol.Depth.N; id++ {
					q.FillNappe16(id, got)
					fresh.FillNappe16(id, want)
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s z=%v id=%d slot %d: derived %d != fresh %d", f.name, z, id, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

func sharesCorrections(p, q *operands) bool {
	return &q.x[0] == &p.x[0] && &q.y[0] == &p.y[0] && &q.ref[0] != &p.ref[0]
}

// TestFillNappeAllocations: the native route keeps its unfolded reference
// slice on the stack up to a 256-element aperture and pays one allocation
// per nappe beyond it; the float datapath and an unproven format pair fill
// through the scalar law, which allocates nothing at any aperture.
func TestFillNappeAllocations(t *testing.T) {
	for _, tc := range []struct {
		nx, ny int
		want   float64
	}{{16, 16, 0}, {8, 6, 0}, {17, 16, 1}} {
		cfg := blockSetup(18).Cfg
		cfg.Arr = xdcr.NewArray(tc.nx, tc.ny, 0.385e-3/2)
		wideCfg := cfg
		wideCfg.RefFmt = fixed.Format{IntBits: 16, FracBits: 3}
		for _, p := range []*Provider{New(cfg), New(wideCfg)} {
			dst := make(delay.Block16, p.Layout().BlockLen())
			for _, p.UseFixed = range []bool{true, false} {
				want := tc.want
				if !p.UseFixed || p.narrow == nil {
					want = 0
				}
				if n := testing.AllocsPerRun(20, func() { p.FillNappe16(3, dst) }); n != want {
					t.Errorf("%d×%d %s fixed=%v FillNappe16: %v allocs per call, want %v", tc.nx, tc.ny, p.Cfg.RefFmt, p.UseFixed, n, want)
				}
			}
		}
	}
}

// TestFillNappe16ConcurrentCallers exercises the BlockProvider contract the
// fill's scratch must respect: one provider and its derived transmit, many
// goroutines, distinct dst — every block equal to the serial fill (run
// under -race).
func TestFillNappe16ConcurrentCallers(t *testing.T) {
	p := blockSetup(18)
	p.UseFixed = true
	dp, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: -2e-3}})
	if err != nil {
		t.Fatal(err)
	}
	provs := []*Provider{p, dp.(*Provider)}
	n := p.Layout().BlockLen()
	depths := p.Cfg.Vol.Depth.N
	want := make([][]delay.Block16, len(provs))
	for i, q := range provs {
		want[i] = make([]delay.Block16, depths)
		for id := range want[i] {
			want[i][id] = make(delay.Block16, n)
			q.FillNappe16(id, want[i][id])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make(delay.Block16, n)
			for k := 0; k < 3*depths; k++ {
				id, q := (k+g)%depths, g%len(provs)
				provs[q].FillNappe16(id, dst)
				for i := range dst {
					if dst[i] != want[q][id][i] {
						t.Errorf("goroutine %d nappe %d slot %d: %d != %d", g, id, i, dst[i], want[q][id][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCorrTablesKeepAssociation pins the correction words themselves: the
// tables are built in storage order, but each value must still be
// (−xD·cosφ)·sinθ and −yD·sinφ in that association, with cosφ taken at the
// folded index — an ulp anywhere would move quantized words and with them
// every served volume.
func TestCorrTablesKeepAssociation(t *testing.T) {
	cfg := blockSetup(18).Cfg
	c := BuildCorrTables(cfg)
	toS := cfg.Conv.Fs / cfg.Conv.C
	for it := 0; it < cfg.Vol.Theta.N; it++ {
		for ip := 0; ip < cfg.Vol.Phi.N; ip++ {
			cphi := math.Cos(cfg.Vol.Phi.At(phiFold(ip, cfg.Vol.Phi.N)))
			for ei := 0; ei < cfg.Arr.NX; ei++ {
				if want := -(cfg.Arr.ElementX(ei) * toS) * cphi * math.Sin(cfg.Vol.Theta.At(it)); c.X(ei, it, ip) != want {
					t.Fatalf("X(%d,%d,%d) = %v, want exactly %v", ei, it, ip, c.X(ei, it, ip), want)
				}
			}
			for ej := 0; ej < cfg.Arr.NY; ej++ {
				if want := -(cfg.Arr.ElementY(ej) * toS) * math.Sin(cfg.Vol.Phi.At(ip)); c.Y(ej, ip) != want {
					t.Fatalf("Y(%d,%d) = %v, want exactly %v", ej, ip, c.Y(ej, ip), want)
				}
			}
		}
	}
}
