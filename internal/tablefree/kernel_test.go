package tablefree

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/xdcr"
)

func fixedProvider(cfg Config) *Provider {
	p := New(cfg)
	p.UseFixed = true
	return p
}

// TestFusedFill16Saturates drives the index range past int16: at 1 m depth
// and 32 MHz the two-way delay exceeds 40 000 samples, so deep nappes must
// pin at MaxInt16 exactly where Index16 does while shallow ones do not.
func TestFusedFill16Saturates(t *testing.T) {
	p := fixedProvider(Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(40), 1.0, 4, 3, 9),
		Arr:  xdcr.NewArray(6, 5, 0.2e-3),
		Conv: conv,
	})
	if v := conform(t, all("deep", p)); v.hi != math.MaxInt16 || v.lo >= math.MaxInt16/2 {
		t.Fatalf("index range [%d, %d] does not straddle saturation", v.lo, v.hi)
	}
}

// TestFusedFill16ClampedSegments shrinks the PWL domain under the geometry
// so arguments fall below segment 0's Lo (negative in-segment offset, hence
// a negative product through the rounding shift) and beyond Max (clamp to
// the last segment, offsets far outside the fitted piece).
func TestFusedFill16ClampedSegments(t *testing.T) {
	p := fixedProvider(smallConfig())
	full := p.Approx
	segs := full.Segments[len(full.Segments)/3 : 2*len(full.Segments)/3]
	cut := &sqrtapprox.Approx{Delta: full.Delta, Max: segs[len(segs)-1].Hi, Segments: segs}
	p.Approx = cut
	p.FixedDP = sqrtapprox.NewFixed(cut, p.Cfg.Fixed)
	below, beyond := 0, 0
	for id := 0; id < p.Cfg.Vol.Depth.N; id++ {
		_, rx := p.args(8, 8, id, 0, 0)
		if rx < segs[0].Lo {
			below++
		}
		if rx > cut.Max {
			beyond++
		}
	}
	if below == 0 || beyond == 0 {
		t.Fatalf("geometry exercises %d below-domain and %d beyond-domain nappes; want both", below, beyond)
	}
	conform(t, all("cut domain", p))
}

// TestFixedRowRoundingEdges feeds the row kernel hand-built arguments whose
// scaled value sits exactly on a rounding tie, one ulp below it, and on
// integers, with transmit legs that push the sum to either int16 rail or
// onto an exact negative half — and a hand-built segment whose power-of-two
// slope puts negative products exactly on the product shift's tie.
func TestFixedRowRoundingEdges(t *testing.T) {
	check := func(name string, f *sqrtapprox.FixedApprox, args []float64, txRaws []int64) {
		t.Helper()
		dp := f.Integer()
		row := make([]int16, len(args))
		for _, txRaw := range txRaws {
			tx := math.Ldexp(float64(txRaw), -f.Cfg.OutFrac)
			// yt2 = zz = 0 keeps each argument exactly as built.
			fixedRow(row, args, 0, 0, txRaw, dp, 0)
			for i, a := range args {
				if want := delay.Index16(tx + f.Eval(a)); row[i] != want {
					t.Errorf("%s txRaw=%d alpha=%v: row %d != Index16 %d", name, txRaw, a, row[i], want)
				}
			}
		}
	}
	for _, fc := range []sqrtapprox.FixedConfig{
		sqrtapprox.DefaultFixedConfig(),
		{ArgFrac: 2, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6},
	} {
		cfg := smallConfig()
		cfg.Fixed = fc
		p := fixedProvider(cfg)
		lsb := math.Ldexp(1, -fc.ArgFrac) // one argument LSB
		var args []float64
		for _, base := range []float64{0, 1, 2, 1023, 65536, 4e6, p.Approx.Max - 1, p.Approx.Max + 1000} {
			tie := (math.Floor(base/lsb) + 0.5) * lsb
			args = append(args, base, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
		}
		args = append(args, 0.49999999999999994*lsb, 0.5*lsb)
		txRaws := []int64{0, 37, 12345 << 6, math.MaxInt16 << 6, -(40000 << 6), -3}
		// Transmit legs that land the two-leg sum on −k.5 exactly.
		rx := int64(math.Ldexp(p.FixedDP.Eval(1023), fc.OutFrac))
		for k := int64(0); k < 3; k++ {
			txRaws = append(txRaws, -rx-32-64*k)
		}
		check(fmt.Sprintf("%+v", fc), p.FixedDP, args, txRaws)
	}
	// Slope 2^−7 at SlopeFrac 24 is the word 2^17 = half of the 18-bit
	// product shift, so every odd in-segment offset is a tie; arguments
	// below Lo make the tied product negative.
	seg := sqrtapprox.Segment{Lo: 1000, Hi: 5000, C1: 1.0 / 128, C0: 30}
	f := sqrtapprox.NewFixed(&sqrtapprox.Approx{Delta: 0.25, Max: seg.Hi, Segments: []sqrtapprox.Segment{seg}},
		sqrtapprox.DefaultFixedConfig())
	check("tied product", f, []float64{999, 998, 997, 901, 1000, 1001, 1002, 4999, 6001}, []int64{0, -2500, 77})
}

// TestUncoveredFixedConfigFillsThroughScalarLaw pins the routing rule: the
// FixedConfig alone decides, and a config the integer form cannot express
// still fills bit-identically, through the scalar law.
func TestUncoveredFixedConfigFillsThroughScalarLaw(t *testing.T) {
	for _, fc := range []sqrtapprox.FixedConfig{
		{ArgFrac: 0, SlopeFrac: 4, OffsetFrac: 6, OutFrac: 6},  // product shift −2: a left shift
		{ArgFrac: 0, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 0}, // no fractional output bits to round away
	} {
		cfg := blockSetup().Cfg
		cfg.Fixed = fc
		p := fixedProvider(cfg)
		if p.FixedDP.Integer() != nil {
			t.Errorf("%+v: integer datapath offered for a config it does not cover", fc)
		}
		conform(t, all(fmt.Sprintf("%+v", fc), p))
	}
	if fixedProvider(blockSetup().Cfg).FixedDP.Integer() == nil {
		t.Error("default FixedConfig must run the integer kernel")
	}
}

// TestFillNappe16Allocations holds the fill to zero allocations per call
// on every route: the fixed fill keeps its scratch on the stack on the
// served widths — whole groups (16), a pair plus a single (12), a partial
// last eight-slot group (13) and a scalar tail behind the lanes (17) — and
// the ideal PWL's scalar-law fill has none. TestLaneFillAllocations is the
// same row.
func TestFillNappe16Allocations(t *testing.T) { eachBody(t, fillAllocations) }

func fillAllocations(t *testing.T) {
	for _, nx := range []int{16, 12, 13, 17} {
		cfg := smallConfig()
		cfg.Arr = xdcr.NewArray(nx, 9, 0.385e-3/2)
		for _, p := range []*Provider{fixedProvider(cfg), New(cfg)} {
			dst := make(delay.Block16, p.Layout().BlockLen())
			if n := testing.AllocsPerRun(10, func() { p.FillNappe16(7, dst) }); n != 0 {
				t.Errorf("NX=%d fixed=%t: %v allocs per FillNappe16, want 0", nx, p.UseFixed, n)
			}
		}
	}
}

// TestFillNappe16ConcurrentCallers fills from a receiver and the transmit
// units derived from it — the providers a compound session holds — on many
// goroutines at once: each reads its own operand table and the receiver's
// shared permute table, writes only its own dst, and every block equals
// the fixedRow path (run under -race). TestLaneFillConcurrentSharedTables
// is the same row.
func TestFillNappe16ConcurrentCallers(t *testing.T) { eachBody(t, concurrentFills) }

func concurrentFills(t *testing.T) {
	cfg := smallConfig()
	cfg.Vol = scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 5, 5, 12)
	cfg.Arr = xdcr.NewArray(12, 12, 0.385e-3/2)
	rx := fixedProvider(cfg)
	provs := []*Provider{rx}
	for _, o := range []geom.Vec3{{X: 2e-3, Z: -3e-3}, {Y: -1e-3, Z: -5e-3}} {
		q, err := rx.WithTransmit(delay.Transmit{Origin: o})
		if err != nil {
			t.Fatal(err)
		}
		if q.(*Provider).perm != rx.perm {
			t.Fatal("the derived unit rebuilt its permute table instead of sharing the receiver's")
		}
		provs = append(provs, q.(*Provider))
	}
	n, depths := rx.Layout().BlockLen(), cfg.Vol.Depth.N
	want := make([][]delay.Block16, len(provs))
	for i, p := range provs {
		want[i] = make([]delay.Block16, depths)
		for id := range want[i] {
			want[i][id] = make(delay.Block16, n)
			refFill16(p, id, want[i][id])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make(delay.Block16, n)
			for k := 0; k < 4*depths; k++ {
				i, id := (g+k)%len(provs), (k+g)%depths
				provs[i].FillNappe16(id, dst)
				for s := range dst {
					if dst[s] != want[i][id][s] {
						t.Errorf("goroutine %d provider %d nappe %d slot %d: %d != %d", g, i, id, s, dst[s], want[i][id][s])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
