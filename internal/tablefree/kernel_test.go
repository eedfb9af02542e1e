package tablefree

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/xdcr"
)

// checkFill16 holds FillNappe16 to Index16(DelaySamples) slot for slot at
// every nappe and returns the smallest and largest index seen.
func checkFill16(t *testing.T, name string, p *Provider) (lo, hi int16) {
	t.Helper()
	l := p.Layout()
	got := make(delay.Block16, l.BlockLen())
	lo, hi = math.MaxInt16, math.MinInt16
	for id := 0; id < p.Cfg.Vol.Depth.N; id++ {
		p.FillNappe16(id, got)
		for it := 0; it < l.NTheta; it++ {
			for ip := 0; ip < l.NPhi; ip++ {
				for ej := 0; ej < l.NY; ej++ {
					for ei := 0; ei < l.NX; ei++ {
						want := delay.Index16(p.DelaySamples(it, ip, id, ei, ej))
						if g := got[l.Index(it, ip, ei, ej)]; g != want {
							t.Fatalf("%s id=%d (%d,%d,%d,%d): fill %d != scalar %d",
								name, id, it, ip, ei, ej, g, want)
						}
						lo, hi = min(lo, want), max(hi, want)
					}
				}
			}
		}
	}
	return lo, hi
}

func fixedProvider(cfg Config) *Provider {
	p := New(cfg)
	p.UseFixed = true
	return p
}

// TestFusedFill16MatchesScalarRandomGeometries is the adversarial side of
// the bit-identity contract: randomized small geometries (odd and even
// axes, 1×N and N×1 apertures, single-node angular axes), on- and off-axis
// transmit origins including behind the array, at the default FixedConfig
// and one with fractional argument bits.
func TestFusedFill16MatchesScalarRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	apertures := [][2]int{{1, 7}, {6, 1}, {1, 1}, {5, 4}, {8, 3}, {3, 9}}
	origins := []geom.Vec3{{}, {X: 1.3e-3, Y: -0.7e-3, Z: -4e-3}, {X: -2e-3, Z: 3e-3}, {Y: 5e-3}}
	fixedCfgs := []sqrtapprox.FixedConfig{{}, {ArgFrac: 2, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6}}
	for trial := 0; trial < 36; trial++ {
		ap := apertures[trial%len(apertures)]
		cfg := Config{
			Vol: scan.NewVolume(geom.Radians(20+60*rng.Float64()), geom.Radians(10+70*rng.Float64()),
				0.02+0.15*rng.Float64(), 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(5)),
			Arr:    xdcr.NewArray(ap[0], ap[1], (0.1+0.3*rng.Float64())*1e-3),
			Origin: origins[trial%len(origins)],
			Conv:   delay.Converter{C: 1540, Fs: []float64{20e6, 32e6, 50e6}[trial%3]},
			Fixed:  fixedCfgs[trial%len(fixedCfgs)],
		}
		p := fixedProvider(cfg)
		if p.FixedDP.Integer() == nil {
			t.Fatalf("trial %d: %+v must run the integer kernel", trial, p.Cfg.Fixed)
		}
		name := fmt.Sprintf("trial %d %+v", trial, cfg)
		checkFill16(t, name, p)
		// The derived transmit unit is what a compound session fills from.
		q, err := p.WithTransmit(delay.Transmit{Origin: origins[(trial+1)%len(origins)]})
		if err != nil {
			t.Fatal(err)
		}
		checkFill16(t, name+" derived", q.(*Provider))
	}
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
	lo, hi := checkFill16(t, "deep", p)
	if hi != math.MaxInt16 || lo >= math.MaxInt16/2 {
		t.Fatalf("index range [%d, %d] does not straddle saturation", lo, hi)
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
	checkFill16(t, "cut domain", p)
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
		checkFill16(t, fmt.Sprintf("%+v", fc), p)
	}
	if fixedProvider(blockSetup().Cfg).FixedDP.Integer() == nil {
		t.Error("default FixedConfig must run the integer kernel")
	}
}

// TestFillNappe16Allocations holds both routes to zero allocations per
// call: the fixed fill keeps its scratch on the stack, and the ideal PWL's
// scalar-law fill has none.
func TestFillNappe16Allocations(t *testing.T) {
	fixed, ideal := fixedProvider(smallConfig()), New(smallConfig())
	dst := make(delay.Block16, fixed.Layout().BlockLen())
	if n := testing.AllocsPerRun(20, func() { fixed.FillNappe16(7, dst) }); n != 0 {
		t.Errorf("fixed FillNappe16: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ideal.FillNappe16(7, dst) }); n != 0 {
		t.Errorf("ideal-PWL FillNappe16: %v allocs per call, want 0", n)
	}
}

// TestFillNappe16ConcurrentCallers exercises the BlockProvider contract the
// kernel's scratch must respect: one provider, many goroutines, distinct
// dst — every block equal to the serial fill (run under -race).
func TestFillNappe16ConcurrentCallers(t *testing.T) {
	p := fixedProvider(blockSetup().Cfg)
	n := p.Layout().BlockLen()
	depths := p.Cfg.Vol.Depth.N
	want := make([]delay.Block16, depths)
	for id := range want {
		want[id] = make(delay.Block16, n)
		p.FillNappe16(id, want[id])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make(delay.Block16, n)
			for k := 0; k < 3*depths; k++ {
				id := (k + g) % depths
				p.FillNappe16(id, dst)
				for i := range dst {
					if dst[i] != want[id][i] {
						t.Errorf("goroutine %d nappe %d slot %d: %d != %d", g, id, i, dst[i], want[id][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
