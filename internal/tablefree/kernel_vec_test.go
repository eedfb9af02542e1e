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

// TestFillKernelBody logs which body fixedPlane runs for a proven datapath
// on this host and build — CI prints the line so a silent fallback shows.
func TestFillKernelBody(t *testing.T) {
	body := fillKernelBody()
	if body != "avx2" && body != "ref" {
		t.Fatalf("unknown body %q", body)
	}
	t.Logf("tablefree fill body: %s", body)
}

// rowsRef is the fixedRow path for one plane: what fixedPlane must equal
// whichever body took whichever columns.
func rowsRef(plane []int16, xt2, yt2 []float64, zz float64, txRaw int64, dp *sqrtapprox.IntDatapath) {
	cur := 0
	for j, y2 := range yt2 {
		cur = fixedRow(plane[j*len(xt2):][:len(xt2)], xt2, y2, zz, txRaw, dp, cur)
	}
}

// eachPlane walks nappe id voxel by voxel as fillNappe16Fixed does, handing
// f each plane's index and terms.
func eachPlane(p *Provider, id int, f func(v int, xt2, yt2 []float64, zz float64, txRaw int64)) {
	l, dp := p.Layout(), p.FixedDP.Integer()
	xt2, yt2 := make([]float64, l.NX), make([]float64, l.NY)
	r := p.Cfg.Conv.MetersToSamples(p.Cfg.Vol.Depth.At(id))
	for v := 0; v < l.NTheta*l.NPhi; v++ {
		zz, argTx := p.planeTerms(v/l.NPhi, v%l.NPhi, r, xt2, yt2)
		f(v, xt2, yt2, zz, dp.Raw(&dp.Ops[p.FixedDP.Base.Find(argTx)], argTx))
	}
}

// refFill16 is fillNappe16Fixed with every slot through fixedRow.
func refFill16(p *Provider, id int, dst delay.Block16) {
	nE, dp := p.Layout().VoxelStride(), p.FixedDP.Integer()
	eachPlane(p, id, func(v int, xt2, yt2 []float64, zz float64, txRaw int64) {
		rowsRef(dst[v*nE:][:nE], xt2, yt2, zz, txRaw, dp)
	})
}

// nappeCensus reports how many voxels of nappe id the lane body takes (on a
// build or host without it, none) and the widest segment span any voxel's
// arguments cover.
func nappeCensus(p *Provider, id int) (vec, scalar, maxSpan int) {
	dp := p.FixedDP.Integer()
	plane := make([]int16, p.Layout().VoxelStride())
	eachPlane(p, id, func(_ int, xt2, yt2 []float64, zz float64, txRaw int64) {
		if done, _ := vecPlane(plane, xt2, yt2, zz, txRaw, dp, 0); done > 0 {
			vec++
		} else {
			scalar++
		}
		amin, amax := math.Inf(1), 0.0
		for _, x := range xt2 {
			for _, y := range yt2 {
				amin, amax = min(amin, x+y+zz), max(amax, x+y+zz)
			}
		}
		lo, hi := segSpan(dp.Ops, amin, amax, 0)
		maxSpan = max(maxSpan, hi-lo)
	})
	return vec, scalar, maxSpan
}

// checkFill16Routes holds FillNappe16 to both of its oracles at every
// nappe: the fixedRow path slot for slot, and Index16(DelaySamples).
func checkFill16Routes(t *testing.T, name string, p *Provider) {
	t.Helper()
	checkFill16(t, name, p)
	n := p.Layout().BlockLen()
	got, want := make(delay.Block16, n), make(delay.Block16, n)
	for id := 0; id < p.Cfg.Vol.Depth.N; id++ {
		p.FillNappe16(id, got)
		refFill16(p, id, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s id=%d slot %d: fill %d != fixedRow path %d", name, id, i, got[i], want[i])
			}
		}
	}
}

// TestLaneFillMatchesRowsRandomGeometries is the lane body's bit-identity
// contract over whole nappes: every row width class (below one group, exact
// groups, a paired group plus a single, each with and without a scalar
// tail), 1×N and N×1 apertures, off-origin transmits built directly and
// derived through WithTransmit, the default FixedConfig and one with
// fractional argument bits.
func TestLaneFillMatchesRowsRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nxs := []int{1, 3, 4, 5, 8, 12, 16, 17, 32}
	origins := []geom.Vec3{{}, {X: 1.3e-3, Y: -0.7e-3, Z: -4e-3}, {X: -2e-3, Z: 3e-3}, {Y: 5e-3}}
	fixedCfgs := []sqrtapprox.FixedConfig{{}, {ArgFrac: 2, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6}}
	took := 0
	for trial := 0; trial < 3*len(nxs); trial++ {
		nx, ny := nxs[trial%len(nxs)], []int{1, 2, 5, 9}[rng.Intn(4)]
		if trial >= 2*len(nxs) {
			nx, ny = ny, nx // the same widths down the slow axis
		}
		cfg := Config{
			Vol: scan.NewVolume(geom.Radians(20+60*rng.Float64()), geom.Radians(10+70*rng.Float64()),
				0.02+0.15*rng.Float64(), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(4)),
			Arr:    xdcr.NewArray(nx, ny, (0.1+0.3*rng.Float64())*1e-3),
			Origin: origins[trial%len(origins)],
			Conv:   delay.Converter{C: 1540, Fs: []float64{20e6, 32e6, 50e6}[trial%3]},
			Fixed:  fixedCfgs[trial%len(fixedCfgs)],
		}
		p := fixedProvider(cfg)
		if p.FixedDP.Integer().Lanes() == nil {
			t.Fatalf("trial %d: %+v must carry the lane proof", trial, p.Cfg.Fixed)
		}
		name := fmt.Sprintf("trial %d %dx%d %+v", trial, nx, ny, cfg)
		checkFill16Routes(t, name, p)
		q, err := p.WithTransmit(delay.Transmit{Origin: origins[(trial+1)%len(origins)]})
		if err != nil {
			t.Fatal(err)
		}
		checkFill16Routes(t, name+" derived", q.(*Provider))
		vec, _, _ := nappeCensus(p, 0)
		took += vec
	}
	if fillKernelBody() == "avx2" && took == 0 {
		t.Fatal("the lane body never ran: the comparison proved nothing about it")
	}
}

// TestLaneFillShallowAndDeep covers the two ends of the segment table on the
// served aperture: nappes a few samples deep, where the short leading
// segments put three and more under one voxel's plane, and the deepest
// nappe at extreme steering, where arguments reach the domain's last
// segment.
func TestLaneFillShallowAndDeep(t *testing.T) {
	p := fixedProvider(Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 5, 4, 1200),
		Arr:  xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv: conv,
	})
	n := p.Layout().BlockLen()
	got, want := make(delay.Block16, n), make(delay.Block16, n)
	widest := 0
	for _, id := range []int{0, 1, 2, 3, 5, 8, 13, 40, 600, 1199} {
		p.FillNappe16(id, got)
		refFill16(p, id, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("id=%d slot %d: fill %d != fixedRow path %d", id, i, got[i], want[i])
			}
		}
		vec, scalar, span := nappeCensus(p, id)
		if fillKernelBody() == "avx2" && scalar != 0 {
			t.Errorf("id=%d: %d of %d voxels fell to the scalar route", id, scalar, vec+scalar)
		}
		widest = max(widest, span)
	}
	if widest < 3 {
		t.Fatalf("widest voxel spans %d extra segments; want ≥ 3 to exercise the select loop", widest)
	}
	last := len(p.Approx.Segments) - 1
	l := p.Layout()
	_, rx := p.args(0, 0, 1199, l.NX-1, l.NY-1)
	if p.Approx.Find(rx) < last-1 {
		t.Fatalf("deepest corner argument sits in segment %d of %d", p.Approx.Find(rx), last+1)
	}
}

// planeCase runs fixedPlane on hand-built terms and holds every slot to the
// fixedRow path and to Index16 of the float datapath, and the slots either
// side of the plane to staying untouched.
func planeCase(t *testing.T, name string, f *sqrtapprox.FixedApprox, xt2, yt2 []float64, zz float64, txRaw int64) {
	t.Helper()
	const pad, canary = 8, -7
	dp := f.Integer()
	n := len(xt2) * len(yt2)
	buf, want := make([]int16, pad+n+pad), make([]int16, n)
	for i := range buf {
		buf[i] = canary // also: a slot the fill skips must not pass by accident
	}
	got := buf[pad : pad+n : pad+n]
	fixedPlane(got, xt2, yt2, zz, txRaw, dp, len(dp.Ops)/2)
	rowsRef(want, xt2, yt2, zz, txRaw, dp)
	for i := 0; i < pad; i++ {
		if buf[i] != canary || buf[pad+n+i] != canary {
			t.Fatalf("%s %dx%d: the fill wrote outside its plane", name, len(xt2), len(yt2))
		}
	}
	tx := math.Ldexp(float64(txRaw), -f.Cfg.OutFrac)
	for j, y := range yt2 {
		for i, x := range xt2 {
			k := j*len(xt2) + i
			if got[k] != want[k] {
				t.Errorf("%s txRaw=%d (%v+%v)+%v: plane %d != fixedRow %d", name, txRaw, x, y, zz, got[k], want[k])
			}
			if float := delay.Index16(tx + f.Eval(x+y+zz)); want[k] != float {
				t.Errorf("%s txRaw=%d (%v+%v)+%v: fixedRow %d != Index16 %d", name, txRaw, x, y, zz, want[k], float)
			}
		}
	}
}

// TestLanePlaneWritesOnlyItsPlane runs every group shape — singles, pairs,
// a pair plus a single, each with and without a scalar tail — against
// canaries either side of the plane: the single group's 8-byte store and
// the pair's 16-byte one must end exactly where their columns do.
func TestLanePlaneWritesOnlyItsPlane(t *testing.T) {
	p := fixedProvider(smallConfig())
	for _, nx := range []int{1, 4, 5, 7, 8, 11, 12, 13, 16, 20, 23} {
		for _, ny := range []int{1, 2, 5} {
			xt2, yt2 := make([]float64, nx), make([]float64, ny)
			for i := range xt2 {
				xt2[i] = float64(9 * i * i)
			}
			for j := range yt2 {
				yt2[j] = float64(1000 * j)
			}
			planeCase(t, "canary", p.FixedDP, xt2, yt2, 2.5e5, 31000)
		}
	}
}

// TestLanePlaneSegmentBoundaries puts arguments exactly on every segment
// start and one ulp either side — the per-lane select's ≥ against the
// cursor's — in planes that mix many segments within one group of four,
// and in every lane position.
func TestLanePlaneSegmentBoundaries(t *testing.T) {
	for _, fc := range []sqrtapprox.FixedConfig{
		sqrtapprox.DefaultFixedConfig(),
		{ArgFrac: 3, SlopeFrac: 22, OffsetFrac: 8, OutFrac: 5},
	} {
		cfg := smallConfig()
		cfg.Fixed = fc
		p := fixedProvider(cfg)
		if p.FixedDP.Integer().Lanes() == nil {
			t.Fatalf("%+v must carry the lane proof", fc)
		}
		var edges []float64
		for _, s := range p.Approx.Segments {
			edges = append(edges, math.Nextafter(s.Lo, 0), s.Lo, math.Nextafter(s.Lo, math.Inf(1)))
		}
		edges[0] = 0 // Nextafter(0, 0)
		edges = append(edges, math.Nextafter(p.Approx.Max, 0), p.Approx.Max)
		name := fmt.Sprintf("%+v", fc)
		for shift := 0; shift < 4; shift++ {
			xt2 := append(make([]float64, shift), edges...)
			xt2 = xt2[:len(xt2)&^3]
			planeCase(t, name+" ascending", p.FixedDP, xt2, []float64{0}, 0, 4321)
		}
		// Adjacent pieces meet almost continuously, so taking the wrong side
		// of a start shows only where their quantized values differ there —
		// and then only in a sum the difference carries across a rounding
		// tie: a transmit leg that puts the larger of the two exactly on
		// x.5 rounds it up and the smaller down.
		dp := p.FixedDP.Integer()
		differ := 0
		for j := 1; j < len(dp.Ops); j++ {
			lo := dp.Ops[j].Lo
			here, below := dp.Raw(&dp.Ops[j], lo), dp.Raw(&dp.Ops[j-1], lo)
			if here == below {
				continue
			}
			differ++
			tie := int64(1)<<(fc.OutFrac-1) - max(here, below)
			planeCase(t, name+" discriminating", p.FixedDP, []float64{lo, math.Nextafter(lo, 0), lo, lo}, []float64{0}, 0, tie)
		}
		if differ == 0 {
			t.Fatalf("%s: no segment start where the two pieces' raw values differ", name)
		}
		// The same edges reached as sums: y and zz carry the segment start,
		// x the ulp, so the association order decides the side.
		for _, j := range []int{1, 2, 7, len(p.Approx.Segments) / 2, len(p.Approx.Segments) - 1} {
			lo := p.Approx.Segments[j].Lo
			ulp := math.Nextafter(lo, math.Inf(1)) - lo
			xt2 := []float64{0, ulp / 2, ulp, 2 * ulp, 0.75 * lo, lo, 0, 0}
			planeCase(t, name+" summed", p.FixedDP, xt2, []float64{0.25 * lo, 0.5 * lo, 0}, 0.5*lo, -99)
			planeCase(t, name+" summed", p.FixedDP, xt2, []float64{0.75 * lo}, 0.25*lo, 0)
		}
	}
}

// TestLanePlaneRoundingTies is TestFixedRowRoundingEdges through the plane:
// scaled arguments exactly on x.5, one ulp below and above it, on integers
// and on 0.49999999999999994, with transmit legs that reach either int16
// rail, land the sum on an exact negative half, sit at the guard's own
// edge (LaneTxLimit−1 runs the lanes, LaneTxLimit the scalar route) and lie
// far beyond it.
func TestLanePlaneRoundingTies(t *testing.T) {
	for _, fc := range []sqrtapprox.FixedConfig{
		sqrtapprox.DefaultFixedConfig(),
		{ArgFrac: 2, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6},
		{ArgFrac: 5, SlopeFrac: 20, OffsetFrac: 10, OutFrac: 9},
	} {
		cfg := smallConfig()
		cfg.Fixed = fc
		p := fixedProvider(cfg)
		if p.FixedDP.Integer().Lanes() == nil {
			t.Fatalf("%+v must carry the lane proof", fc)
		}
		lsb := math.Ldexp(1, -fc.ArgFrac)
		args := []float64{0.49999999999999994 * lsb, 0.5 * lsb}
		for _, base := range []float64{0, 1, 2, 3.5, 1023, 65536, 4e6, p.Approx.Max - 2} {
			tie := (math.Floor(base/lsb) + 0.5) * lsb
			args = append(args, base, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
		}
		args = args[:len(args)&^3]
		half := int64(1) << (fc.OutFrac - 1)
		txRaws := []int64{0, 37, 12345 << fc.OutFrac, math.MaxInt16 << fc.OutFrac, -(40000 << fc.OutFrac), -3,
			sqrtapprox.LaneTxLimit - 1, sqrtapprox.LaneTxLimit, -sqrtapprox.LaneTxLimit + 1, -sqrtapprox.LaneTxLimit,
			// Past the limit a leg no longer fits the lanes' dwords: these
			// must take the scalar route and pin at the int16 rails.
			math.MaxInt32, 1 << 31, 1<<32 + 12345, -(1 << 31), -(1<<35 + 99)}
		rx := int64(math.Ldexp(p.FixedDP.Eval(1023), fc.OutFrac))
		for k := int64(0); k < 3; k++ {
			txRaws = append(txRaws, -rx-half-2*half*k)
		}
		for _, txRaw := range txRaws {
			planeCase(t, fmt.Sprintf("%+v", fc), p.FixedDP, args, []float64{0}, 0, txRaw)
		}
	}
}

// TestLanePlaneAssociationOrder builds terms whose two association orders
// round to different doubles either side of a scaled-argument tie:
// (x + y) + zz = 6.5 − ulp rounds to 6, (x + zz) + y = 6.5 to 7. Only
// DelaySamples' order — the first — matches, and a sweep of transmit legs
// carries the one-count difference across an index tie.
func TestLanePlaneAssociationOrder(t *testing.T) {
	p := fixedProvider(smallConfig())
	ulp := math.Nextafter(6.5, 7) - 6.5
	x, y, zz := 0.6*ulp, 0.6*ulp, 6.5-2*ulp
	if (x+y)+zz == (x+zz)+y {
		t.Fatal("the two association orders agree: the case proves nothing")
	}
	for txRaw := int64(0); txRaw < 64; txRaw++ {
		planeCase(t, "association", p.FixedDP, []float64{x, x, 0, x}, []float64{y, 0}, zz, txRaw)
	}
}

// TestUnprovenDatapathsTakeRows pins the routing rule's other half: a
// datapath that fails any clause of sqrtapprox's lane proof carries no
// licence, fixedRow emits every slot, and the fill stays bit-identical.
// Each case fails exactly the clause its name says; run through the lanes
// anyway (drop the clause) and the fill comparison is what breaks.
func TestUnprovenDatapathsTakeRows(t *testing.T) {
	base := blockSetup().Cfg
	with := func(fc sqrtapprox.FixedConfig) *Provider {
		cfg := base
		cfg.Fixed = fc
		return fixedProvider(cfg)
	}
	cut := fixedProvider(base)
	segs := cut.Approx.Segments[2:]
	cut.Approx = &sqrtapprox.Approx{Delta: cut.Approx.Delta, Max: cut.Approx.Max, Segments: segs}
	cut.FixedDP = sqrtapprox.NewFixed(cut.Approx, cut.Cfg.Fixed)
	for _, c := range []struct {
		clause string
		p      *Provider
	}{
		{"segment 0 starts", cut},
		{"scaled domain end", with(sqrtapprox.FixedConfig{ArgFrac: 11, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6})},
		{"slope word", with(sqrtapprox.FixedConfig{ArgFrac: 0, SlopeFrac: 32, OffsetFrac: 6, OutFrac: 6})},
		{"receive result bound", with(sqrtapprox.FixedConfig{ArgFrac: 0, SlopeFrac: 30, OffsetFrac: 20, OutFrac: 20})},
	} {
		dp := c.p.FixedDP.Integer()
		if dp == nil {
			t.Fatalf("%s: %+v must still run the integer kernel", c.clause, c.p.Cfg.Fixed)
		}
		if ln := dp.Lanes(); ln != nil {
			t.Errorf("%+v: licence %+v; want none (the %s clause)", c.p.Cfg.Fixed, ln, c.clause)
		}
		if vec, _, _ := nappeCensus(c.p, c.p.Cfg.Vol.Depth.N-1); vec != 0 {
			t.Errorf("%s: the lane body took %d voxels", c.clause, vec)
		}
		checkFill16Routes(t, c.clause, c.p)
	}
}

// TestLaneGuardTripsMidNappe shrinks the PWL domain to the median of one
// nappe's largest arguments, so that the per-voxel guard (αmax within the
// proven bound) passes and fails inside the same FillNappe16 call: both
// routes write into one block, which must come out as the scalar law says.
func TestLaneGuardTripsMidNappe(t *testing.T) {
	p := fixedProvider(blockSetup().Cfg)
	l := p.Layout()
	id := p.Cfg.Vol.Depth.N / 2
	var amax []float64
	for it := 0; it < l.NTheta; it++ {
		for ip := 0; ip < l.NPhi; ip++ {
			m := 0.0
			for _, e := range [][2]int{{0, 0}, {l.NX - 1, 0}, {0, l.NY - 1}, {l.NX - 1, l.NY - 1}} {
				_, rx := p.args(it, ip, id, e[0], e[1])
				m = max(m, rx)
			}
			amax = append(amax, m)
		}
	}
	lo, hi := amax[0], amax[0]
	for _, a := range amax {
		lo, hi = min(lo, a), max(hi, a)
	}
	p.Approx = sqrtapprox.New((lo+hi)/2, p.Approx.Delta)
	p.FixedDP = sqrtapprox.NewFixed(p.Approx, p.Cfg.Fixed)
	if p.FixedDP.Integer().Lanes() == nil {
		t.Fatal("the shrunk domain must still carry the lane proof")
	}
	vec, scalar, _ := nappeCensus(p, id)
	if fillKernelBody() == "avx2" && (vec == 0 || scalar == 0) {
		t.Fatalf("nappe %d: %d voxels through the lanes, %d through the guard; want both", id, vec, scalar)
	}
	checkFill16Routes(t, "shrunk domain", p)
}

// TestLaneFillAllocations holds the fill to zero allocations per call on
// the served widths: whole groups (16), a pair plus a single (12) and a
// scalar tail behind the lanes (17).
func TestLaneFillAllocations(t *testing.T) {
	for _, nx := range []int{16, 12, 17} {
		cfg := smallConfig()
		cfg.Arr = xdcr.NewArray(nx, 9, 0.385e-3/2)
		p := fixedProvider(cfg)
		dst := make(delay.Block16, p.Layout().BlockLen())
		if n := testing.AllocsPerRun(10, func() { p.FillNappe16(7, dst) }); n != 0 {
			t.Errorf("NX=%d: %v allocs per FillNappe16, want 0", nx, n)
		}
	}
}

// TestLaneFillConcurrentSharedTables fills from a receiver and the transmit
// units derived from it — the providers a compound session holds — on many
// goroutines at once: each reads its own operand table and writes only its
// own dst (run under -race).
func TestLaneFillConcurrentSharedTables(t *testing.T) {
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
