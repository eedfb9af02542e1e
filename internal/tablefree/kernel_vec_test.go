package tablefree

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/xdcr"
)

// TestFillKernelBody logs which body lanes runs for a proven datapath
// on this host and build — CI prints the line so a silent fallback shows.
func TestFillKernelBody(t *testing.T) {
	body := fillKernelBody()
	if body != "avx512" && body != "avx2" && body != "ref" {
		t.Fatalf("unknown body %q", body)
	}
	t.Logf("tablefree fill body: %s", body)
}

// laneColumns is how many leading columns of every row of an nx×ny plane
// the running body takes from a voxel that passes the guard.
func laneColumns(nx, ny int) int {
	switch fillKernelBody() {
	case "avx512":
		if nx <= maxPermAxis && ny <= maxPermAxis {
			return nx
		}
		fallthrough
	case "avx2":
		return nx &^ 3
	}
	return 0
}

// rowsRef is the fixedRow path for one plane, its cursor from segment 0:
// what a fill must equal whichever body took whichever columns.
func rowsRef(plane []int16, xt2, yt2 []float64, zz float64, txRaw int64, dp *sqrtapprox.IntDatapath) {
	cur := 0
	for j, y2 := range yt2 {
		cur = fixedRow(plane[j*len(xt2):][:len(xt2)], xt2, y2, zz, txRaw, dp, cur)
	}
}

// eachPlane walks nappe id voxel by voxel as fillNappe16Fixed does, handing
// f each plane's index, voxel and terms. The transmit leg comes from Find,
// not the fill's cursor.
func eachPlane(p *Provider, id int, f func(k int, v voxel, xt2, yt2 []float64)) {
	l, dp := p.Layout(), p.FixedDP.Integer()
	xt2, yt2 := make([]float64, l.NX), make([]float64, l.NY)
	r := p.Cfg.Conv.MetersToSamples(p.Cfg.Vol.Depth.At(id))
	for k := 0; k < l.NTheta*l.NPhi; k++ {
		v, argTx := p.focal(k/l.NPhi, k%l.NPhi, r)
		v.txRaw = dp.Raw(&dp.Ops[p.FixedDP.Base.Find(argTx)], argTx)
		p.planeTerms(v.sx, v.sy, xt2, yt2)
		f(k, v, xt2, yt2)
	}
}

// refFill16 is fillNappe16Fixed with every slot through fixedRow.
func refFill16(p *Provider, id int, dst delay.Block16) {
	nE, dp := p.Layout().VoxelStride(), p.FixedDP.Integer()
	eachPlane(p, id, func(k int, v voxel, xt2, yt2 []float64) {
		rowsRef(dst[k*nE:][:nE], xt2, yt2, v.zz, v.txRaw, dp)
	})
}

// laneCallFor is the laneCall a fill of q through dp makes under the probes
// as they stand.
func laneCallFor(q *Provider, dp *sqrtapprox.IntDatapath) *laneCall {
	lc := new(laneCall)
	q.initLaneCall(lc, dp)
	return lc
}

// scanExtremes is the smallest and largest of v, both NaN if any is: the
// guard's extremes found by looking.
func scanExtremes(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// txMask is the refusal mask fillNappe16Fixed's pass builds for vox: the
// voxels whose transmit leg txOutside refuses.
func txMask(vox []voxel) (refused uint64) {
	for k, v := range vox {
		if txOutside(v.txRaw) {
			refused |= 1 << k
		}
	}
	return refused
}

// eachBatch hands f nappe id's voxels in the batches fillNappe16Fixed
// forms, the transmit legs from Find.
func eachBatch(p *Provider, id int, f func(vox []voxel)) {
	var vox []voxel
	eachPlane(p, id, func(_ int, v voxel, _, _ []float64) {
		if vox = append(vox, v); len(vox) == batchVoxels {
			f(vox)
			vox = vox[:0]
		}
	})
	if len(vox) > 0 {
		f(vox)
	}
}

// laneMask is the refusal mask the fill's lane call, made under the probes
// as they stand, returns for a batch: the transmit guard's marks and the
// body's own.
func laneMask(p *Provider, lc *laneCall, vox []voxel) uint64 {
	l := p.Layout()
	planes := make([]int16, len(vox)*l.VoxelStride())
	return p.lanes(planes, vox, txMask(vox), make([]float64, l.NX), make([]float64, l.NY), lc)
}

// nappeCensus reports how many voxels of nappe id the lane body takes (on a
// build or host without it, none) and how many it leaves to fixedRow, and
// the widest segment span any voxel's arguments cover.
func nappeCensus(p *Provider, id int) (vec, scalar, maxSpan int) {
	dp := p.FixedDP.Integer()
	lc := laneCallFor(p, dp)
	eachBatch(p, id, func(vox []voxel) {
		n := bits.OnesCount64(laneMask(p, lc, vox))
		vec, scalar = vec+len(vox)-n, scalar+n
	})
	eachPlane(p, id, func(_ int, v voxel, xt2, yt2 []float64) {
		xlo, xhi := scanExtremes(xt2)
		ylo, yhi := scanExtremes(yt2)
		lo, hi := segSpan(dp.Ops, xlo+ylo+v.zz, xhi+yhi+v.zz, 0)
		maxSpan = max(maxSpan, hi-lo)
	})
	return vec, scalar, maxSpan
}

// TestLaneFillShallowAndDeep is the matrix over the two ends of the segment
// table on the served aperture: nappes a few samples deep, where the short
// leading segments put three and more under one voxel's plane, and the
// deepest nappe at extreme steering, where arguments reach the domain's
// last segment. No voxel may miss a lane route's body.
func TestLaneFillShallowAndDeep(t *testing.T) {
	p := fixedProvider(Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 5, 4, 1200),
		Arr:  xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv: conv,
	})
	v := conform(t, fill{"shallow and deep", p, []int{0, 1, 2, 3, 5, 8, 13, 40, 600, 1199}})
	for _, r := range laneRoutes() {
		if c := v.census[r.name]; c.scalar != 0 {
			t.Errorf("%s route: %d of %d voxels fell to the scalar route", r.name, c.scalar, c.vec+c.scalar)
		}
	}
	if widest := v.census[hostRoutes()[0].name].span; widest < 3 {
		t.Fatalf("widest voxel spans %d extra segments; want ≥ 3 to exercise the select loop", widest)
	}
	last := len(p.Approx.Segments) - 1
	l := p.Layout()
	_, rx := p.args(0, 0, 1199, l.NX-1, l.NY-1)
	if p.Approx.Find(rx) < last-1 {
		t.Fatalf("deepest corner argument sits in segment %d of %d", p.Approx.Find(rx), last+1)
	}
}

// handAperture is a provider over hand-built element coordinates, with only
// its aperture set: for a voxel at sx = sy = 0, element −d forms the term
// fl(d²), so a test picks its terms through the offsets d.
func handAperture(dx, dy []float64) *Provider {
	q := &Provider{elemX: make([]float64, len(dx)), elemY: make([]float64, len(dy)), perm: newPlanePerm(len(dx), len(dy))}
	for i, d := range dx {
		q.elemX[i] = -d
	}
	for j, d := range dy {
		q.elemY[j] = -d
	}
	q.provePitch()
	return q
}

// sqrts returns the offsets whose terms are v, to within their rounding.
func sqrts(v ...float64) []float64 {
	for i, x := range v {
		v[i] = math.Sqrt(x)
	}
	return v
}

// handPlane fills one voxel's plane on a hand-built aperture as a batch of
// one, the lane body's segment cursor starting at segment cur, and reports
// how many lane columns it took. fixedRow's cursor starts at segment 0, as
// rowsRef's does: a NaN argument leaves it where it stands. On a pitch
// grid, and on any grid through the eight-lane body, it is the fill's own
// route. The four-lane route's derived guard covers pitch grids alone, so
// on any other grid handLanes scans the guard's extremes from the formed
// terms, and the body runs as the fill runs it.
func handPlane(q *Provider, plane []int16, v voxel, dp *sqrtapprox.IntDatapath, cur int) (done int) {
	xt2, yt2 := make([]float64, len(q.elemX)), make([]float64, len(q.elemY))
	lc := laneCallFor(q, dp)
	lc.startAt(cur)
	vox := []voxel{v}
	refused := handLanes(q, plane, vox, xt2, yt2, lc)
	q.fixedPlanes(plane, vox, refused, xt2, yt2, dp, 0)
	if refused != 0 {
		return 0
	}
	return lc.nVec
}

// licensed reports whether the lane licence covers a voxel of an
// aperture whose lane bodies take cols leading columns: every argument
// (xt2[i] + yt2[j]) + zz they take in [ArgMin, ArgMax], and the transmit
// leg in [0, LaneTxLimit). It is the guard's contract read element by
// element, where lanes reads it from the terms' extremes.
func licensed(ln *sqrtapprox.Lanes, cols int, xt2, yt2 []float64, v voxel) bool {
	if ln == nil || cols == 0 || v.txRaw < 0 || v.txRaw >= sqrtapprox.LaneTxLimit {
		return false
	}
	for _, y := range yt2 {
		for _, x := range xt2[:cols] {
			if a := x + y + v.zz; !(a >= ln.ArgMin && a <= ln.ArgMax) {
				return false
			}
		}
	}
	return true
}

// planeCase runs handPlane on aperture q, with its own permute table, and
// holds every slot to the fixedRow path and, but for a NaN argument, to
// Index16 of the float datapath, the slots either side of the plane to staying untouched, and
// the route to the licence: the lane body takes laneColumns of a licensed
// voxel and none of any other.
func planeCase(t *testing.T, name string, f *sqrtapprox.FixedApprox, q *Provider, v voxel) {
	t.Helper()
	const pad, canary = 8, -7
	dp := f.Integer()
	xt2, yt2 := make([]float64, len(q.elemX)), make([]float64, len(q.elemY))
	q.planeTerms(v.sx, v.sy, xt2, yt2)
	n := len(xt2) * len(yt2)
	buf, want := make([]int16, pad+n+pad), make([]int16, n)
	for i := range buf {
		buf[i] = canary // also: a slot the fill skips must not pass by accident
	}
	got := buf[pad : pad+n : pad+n]
	done := handPlane(q, got, v, dp, len(dp.Ops)/2)
	cols := laneColumns(len(xt2), len(yt2))
	if !licensed(dp.Lanes(), cols, xt2, yt2, v) {
		cols = 0
	}
	if done != cols {
		t.Errorf("%s %dx%d txRaw=%d zz=%v: the lane body took %d columns, the licence gives %d", name, len(xt2), len(yt2), v.txRaw, v.zz, done, cols)
	}
	rowsRef(want, xt2, yt2, v.zz, v.txRaw, dp)
	for i := 0; i < pad; i++ {
		if buf[i] != canary || buf[pad+n+i] != canary {
			t.Fatalf("%s %dx%d: the fill wrote outside its plane", name, len(xt2), len(yt2))
		}
	}
	tx := math.Ldexp(float64(v.txRaw), -f.Cfg.OutFrac)
	for j, y := range yt2 {
		for i, x := range xt2 {
			k := j*len(xt2) + i
			if got[k] != want[k] {
				t.Errorf("%s txRaw=%d (%v+%v)+%v: plane %d != fixedRow %d", name, v.txRaw, x, y, v.zz, got[k], want[k])
			}
			if float := delay.Index16(tx + f.Eval(x+y+v.zz)); want[k] != float && !math.IsNaN(x+y+v.zz) {
				t.Errorf("%s txRaw=%d (%v+%v)+%v: fixedRow %d != Index16 %d", name, v.txRaw, x, y, v.zz, want[k], float)
			}
		}
	}
}

// TestLanePlaneWritesOnlyItsPlane runs every group shape — singles, pairs,
// a pair plus a single, each with and without a scalar tail; planes of
// whole eight-slot groups and planes whose last group is partial — against
// canaries either side of the plane: the single group's 8-byte store, the
// pair's 16-byte one and the masked store of a partial last group must end
// exactly where their slots do. Each shape must also take the route the
// body's aperture rule gives it.
func TestLanePlaneWritesOnlyItsPlane(t *testing.T) { eachBody(t, lanePlaneWritesOnlyItsPlane) }

func lanePlaneWritesOnlyItsPlane(t *testing.T) {
	p := fixedProvider(smallConfig())
	dp := p.FixedDP.Integer()
	for _, nx := range []int{1, 3, 4, 5, 7, 8, 11, 12, 13, 16, 17, 20, 23} {
		for _, ny := range []int{1, 2, 5, 7, 13, 16, 17} {
			// Terms 9i² and 900j².
			dx, dy := make([]float64, nx), make([]float64, ny)
			for i := range dx {
				dx[i] = float64(3 * i)
			}
			for j := range dy {
				dy[j] = float64(30 * j)
			}
			q := handAperture(dx, dy)
			v := voxel{zz: 2.5e5, txRaw: 31000}
			planeCase(t, "canary", p.FixedDP, q, v)
			if done := handPlane(q, make([]int16, nx*ny), v, dp, 0); done != laneColumns(nx, ny) {
				t.Errorf("%dx%d: the lane body took %d columns, want %d", nx, ny, done, laneColumns(nx, ny))
			}
		}
	}
}

// reach returns offsets whose terms sum to exactly alpha in DelaySamples'
// order, fl(fl(dx²) + fl(dy²)) == alpha: dx carries all but a few ulps, and
// dy, whose square is fine-grained at that size, the exact remainder.
func reach(t *testing.T, alpha float64) (dx, dy float64) {
	t.Helper()
	dx = math.Sqrt(alpha)
	for dx > 0 && float64(dx*dx) > alpha {
		dx = math.Nextafter(dx, 0)
	}
	x := float64(dx * dx)
	dy = math.Sqrt(alpha - x)
	if got := x + float64(dy*dy); got != alpha {
		t.Fatalf("no offsets reach %v: %v", alpha, got)
	}
	return dx, dy
}

// planeChunks runs planeCase over vals as square planes of at most
// maxPermAxis columns, so that the eight-lane body takes every value: slot
// (i, i) of a plane forms vals[i] exactly (reach), and the other slots of
// column i add other rows' small remainders to the same column term, so
// every row mixes all the values. Values below the licence's ArgMin send
// their whole plane to fixedRow, so they form planes of their own, after
// the rest.
func planeChunks(t *testing.T, name string, f *sqrtapprox.FixedApprox, vals []float64, txRaw int64) {
	t.Helper()
	floor := f.Integer().Lanes().ArgMin
	low := slices.DeleteFunc(slices.Clone(vals), func(a float64) bool { return a >= floor })
	vals = append(slices.DeleteFunc(slices.Clone(vals), func(a float64) bool { return a < floor }), low...)
	for len(vals) > 0 {
		n := min(len(vals), maxPermAxis)
		dx, dy := make([]float64, n), make([]float64, n)
		for i, a := range vals[:n] {
			dx[i], dy[i] = reach(t, a)
		}
		planeCase(t, name, f, handAperture(dx, dy), voxel{txRaw: txRaw})
		vals = vals[n:]
	}
}

// TestLanePlaneSegmentBoundaries puts arguments exactly on every segment
// start and one ulp either side — the per-lane select's ≥ against the
// cursor's — in planes that mix many segments within one group, and in
// every lane position of either body.
func TestLanePlaneSegmentBoundaries(t *testing.T) { eachBody(t, lanePlaneSegmentBoundaries) }

func lanePlaneSegmentBoundaries(t *testing.T) {
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
		for shift := 0; shift < 8; shift++ {
			planeChunks(t, name+" ascending", p.FixedDP, append(slices.Repeat([]float64{1}, shift), edges...), 4321)
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
			planeChunks(t, name+" discriminating", p.FixedDP, []float64{lo, math.Nextafter(lo, 0), lo, lo}, tie)
		}
		if differ == 0 {
			t.Fatalf("%s: no segment start where the two pieces' raw values differ", name)
		}
		// The same edges reached as sums: y and zz carry the segment start,
		// x the ulp, so the association order decides the side.
		for _, j := range []int{1, 2, 7, len(p.Approx.Segments) / 2, len(p.Approx.Segments) - 1} {
			lo := p.Approx.Segments[j].Lo
			ulp := math.Nextafter(lo, math.Inf(1)) - lo
			dx := sqrts(0, ulp/2, ulp, 2*ulp, 0.75*lo, lo, 0, 0)
			planeCase(t, name+" summed", p.FixedDP, handAperture(dx, sqrts(0.25*lo, 0.5*lo, 0)), voxel{zz: 0.5 * lo, txRaw: 99})
			// y + zz == lo exactly: zz is y's exact complement.
			dy := math.Sqrt(0.75 * lo)
			planeCase(t, name+" summed", p.FixedDP, handAperture(dx, []float64{dy}), voxel{zz: lo - float64(dy*dy)})
		}
	}
}

// TestLanePlaneRoundingTies is TestFixedRowRoundingEdges through the plane:
// scaled arguments exactly on x.5, one ulp below and above it, on integers,
// on the binade edges 2^k − 0.5 and one ulp either side (where fl(x + 0.5)
// crosses into the next binade) and on 0.49999999999999994, just below the
// licence's ArgMin, which fixedRow must take; with transmit legs that reach
// either int16 rail, sit at the guard's own edges (0 and LaneTxLimit−1 run
// the lanes, −1 and LaneTxLimit the scalar route), lie far beyond them, or
// land the sum on an exact negative half.
func TestLanePlaneRoundingTies(t *testing.T) { eachBody(t, lanePlaneRoundingTies) }

func lanePlaneRoundingTies(t *testing.T) {
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
		for k := 0; math.Ldexp(1, k)*lsb <= p.Approx.Max; k++ {
			edge := math.Ldexp(1, k) - 0.5 // scaled units: ×lsb is exact
			args = append(args, edge*lsb, math.Nextafter(edge, 0)*lsb, math.Nextafter(edge, math.Inf(1))*lsb, (float64(k)+0.5)*lsb)
		}
		half := int64(1) << (fc.OutFrac - 1)
		txRaws := []int64{0, -1, 37, 12345 << fc.OutFrac, math.MaxInt16 << fc.OutFrac, -(40000 << fc.OutFrac), -3,
			sqrtapprox.LaneTxLimit - 1, sqrtapprox.LaneTxLimit, -sqrtapprox.LaneTxLimit + 1, -sqrtapprox.LaneTxLimit,
			// Past the limit a leg no longer fits the lanes' dwords: these
			// must take the scalar route and pin at the int16 rails.
			math.MaxInt32, 1 << 31, 1<<32 + 12345, -(1 << 31), -(1<<35 + 99)}
		rx := int64(math.Ldexp(p.FixedDP.Eval(1023), fc.OutFrac))
		for k := int64(0); k < 3; k++ {
			txRaws = append(txRaws, -rx-half-2*half*k)
		}
		for _, txRaw := range txRaws {
			planeChunks(t, fmt.Sprintf("%+v", fc), p.FixedDP, args, txRaw)
		}
	}
}

// TestLaneExtremesEveryLane holds the guard's extremes to the licence lane
// by lane, on hand-built apertures up to 16 wide on either axis: a term
// below ArgMin, above ArgMax or NaN in each column and each row in turn —
// every lane of the eight-lane body's four term registers — must refuse
// the voxel (on the four-lane route, in the columns it takes), and the
// lanes past the aperture, which the eight-lane body loads as zeros, must
// not count: the voxel sits at 0 on an axis whose elements are all at
// least a sample off, the other axis's smallest term being 0, so that a
// zero lane would form the smallest argument, 0; or it sits 10^5 samples
// out with its elements around it, so that a zero lane would form the
// largest, 10^10.
func TestLaneExtremesEveryLane(t *testing.T) { eachBody(t, laneExtremesEveryLane) }

func laneExtremesEveryLane(t *testing.T) {
	p := fixedProvider(smallConfig())
	ln := p.FixedDP.Integer().Lanes()
	big := math.Sqrt(ln.ArgMax) + 1
	// Offsets 1, 2, …: terms at least 1 ≥ ArgMin, and 0 on the other axis.
	offsets := func(n int, from float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = from + float64(i)
		}
		return d
	}
	at := func(q *Provider, cx, cy float64) *Provider {
		for i := range q.elemX {
			q.elemX[i] += cx
		}
		for j := range q.elemY {
			q.elemY[j] += cy
		}
		return q
	}
	for _, nx := range []int{1, 2, 3, 7, 8, 9, 12, 15, 16} {
		for _, ny := range []int{1, 5, 8, 9, 16} {
			cols := laneColumns(nx, ny)
			for _, c := range []float64{0, 1e5} {
				planeCase(t, "zero lanes, x", p.FixedDP, at(handAperture(offsets(nx, 1), offsets(ny, 0)), c, c), voxel{sx: c, sy: c})
				planeCase(t, "zero lanes, y", p.FixedDP, at(handAperture(offsets(nx, 0), offsets(ny, 1)), c, c), voxel{sx: c, sy: c})
			}
			for _, d := range []float64{0, big, math.NaN()} {
				for i := range nx {
					if math.IsNaN(d) && i >= cols {
						continue // fixedRow's tail: a NaN's segment is its cursor's
					}
					dx := offsets(nx, 1)
					dx[i] = d
					planeCase(t, fmt.Sprintf("column %d of %d at %v", i, nx, d), p.FixedDP, handAperture(dx, offsets(ny, 0)), voxel{})
				}
				for j := range ny {
					dy := offsets(ny, 1)
					dy[j] = d
					planeCase(t, fmt.Sprintf("row %d of %d at %v", j, ny, d), p.FixedDP, handAperture(offsets(nx, 0), dy), voxel{})
				}
			}
		}
	}
}

// TestLanePlaneAssociationOrder builds terms whose two association orders
// round to different doubles either side of a scaled-argument tie:
// (x + y) + zz = 6.5 − ulp rounds to 6, (x + zz) + y = 6.5 to 7. Only
// DelaySamples' order — the first — matches, and a sweep of transmit legs
// carries the one-count difference across an index tie.
func TestLanePlaneAssociationOrder(t *testing.T) { eachBody(t, lanePlaneAssociationOrder) }

func lanePlaneAssociationOrder(t *testing.T) {
	p := fixedProvider(smallConfig())
	ulp := math.Nextafter(6.5, 7) - 6.5
	d, zz := math.Sqrt(0.6*ulp), 6.5-2*ulp
	x := float64(d * d) // the column and the row term alike
	if (x+x)+zz == (x+zz)+x {
		t.Fatal("the two association orders agree: the case proves nothing")
	}
	q := handAperture([]float64{d, d, 0, d}, []float64{d, 0})
	for txRaw := int64(0); txRaw < 64; txRaw++ {
		planeCase(t, "association", p.FixedDP, q, voxel{zz: zz, txRaw: txRaw})
	}
}

// TestLaneClauseRows runs the licence's clauses on the sign of the Index
// stage and on the rounding through the fill matrix: every argument at
// least ArgMin (the half-up floor is the argument's rounding only from 0.5
// scaled up), and every V0 non-negative (with the guard's tx ≥ 0 the
// two-leg sum then never goes negative, so Index is a logical shift). Each
// row is a fill that fails exactly its clause somewhere: a voxel whose
// smallest scaled argument is the largest double below 0.5, beside its twin
// exactly at 0.5; and a hand-built datapath whose line values sit k samples
// low, so that V0 goes negative and the lane proof refuses it. On every
// route the fill is == the scalar law; on every lane route the census shows
// fixedRow taking exactly the voxels the licence, read element by element,
// does not cover. Each clause's rows also show they can tell: in one of
// them at least, a fill through the lanes with the clause dropped would
// differ from the law. (A transmit leg below zero is a hand-plane case of
// TestLanePlaneRoundingTies: no fill through a proven datapath forms one.)
func TestLaneClauseRows(t *testing.T) {
	told := map[string]bool{}
	for _, r := range clauseRows(t) {
		for clause, tells := range r.shows {
			told[clause] = told[clause] || tells()
		}
		t.Run(r.name, func(t *testing.T) {
			v := conform(t, all(r.name, r.p))
			for _, rt := range laneRoutes() {
				restore := rt.use()
				vec, scalar := licenceCensus(r.p)
				restore()
				if c := v.census[rt.name]; c.vec != vec || c.scalar != scalar {
					t.Errorf("%s route: %d voxels through the lanes, %d through fixedRow; the licence gives %d and %d", rt.name, c.vec, c.scalar, vec, scalar)
				}
				if scalar < r.minScalar || vec < r.minVec {
					t.Errorf("%s route: the licence covers %d voxels and not %d; the row needs ≥ %d and ≥ %d", rt.name, vec, scalar, r.minVec, r.minScalar)
				}
			}
		})
	}
	for clause, ok := range told {
		if !ok {
			t.Errorf("%s: no row can tell the clause is kept", clause)
		}
	}
}

// clauseRow is one fill of TestLaneClauseRows: how many voxels the licence
// must cover and leave at least, and whether it shows what the rows must
// show between them, by name.
type clauseRow struct {
	name              string
	p                 *Provider
	minVec, minScalar int
	shows             map[string]func() bool
}

func clauseRows(t *testing.T) (rows []clauseRow) {
	t.Helper()
	for _, fc := range fixedCfgs {
		cfg := fc
		if cfg == (sqrtapprox.FixedConfig{}) {
			cfg = sqrtapprox.DefaultFixedConfig()
		}
		floor := 0.5 / math.Ldexp(1, cfg.ArgFrac)
		clause := fmt.Sprintf("ArgMin, %+v", cfg)
		// The origins the matrix fills from, and the first on-axis origin,
		// in 10 µm steps, whose transmit leg puts the floor's extra count
		// across an index tie.
		tie := geom.Vec3{}
		for z := 1; !roundingTells(argMinCase(t, cfg, tie, math.Nextafter(floor, 0))); z++ {
			tie.Z = float64(z) * 1e-5
		}
		for _, o := range append(origins[:4:4], tie) {
			below := argMinCase(t, cfg, o, math.Nextafter(floor, 0))
			rows = append(rows,
				clauseRow{fmt.Sprintf("%+v %+v ArgMin−ulp", cfg, o), below, 0, 1, map[string]func() bool{clause: func() bool { return roundingTells(below) }}},
				clauseRow{fmt.Sprintf("%+v %+v ArgMin", cfg, o), argMinCase(t, cfg, o, floor), 1, 0, nil})
		}
	}
	const k = 20 // samples the hand-built lines sit low
	p := lowLines(t, k)
	rows = append(rows, clauseRow{fmt.Sprintf("V0 %d samples low", k), p, 0, 1, map[string]func() bool{"V0 ≥ 0": func() bool { return negativeSumTells(p) }}})
	return rows
}

// argMinCase is a one-voxel fill whose smallest receive argument is alpha:
// the voxel sits on axis at depth r, so its depth term is r², and the
// aperture is one row of four elements at ±a and ±3a, a picked so that
// fl(a²) + r² == alpha.
func argMinCase(t *testing.T, fc sqrtapprox.FixedConfig, o geom.Vec3, alpha float64) *Provider {
	t.Helper()
	r := math.Sqrt(alpha / 2) // samples
	p := fixedProvider(Config{
		Vol:    scan.NewVolume(0, 0, r*conv.C/conv.Fs, 1, 1, 1),
		Arr:    xdcr.NewArray(4, 1, 1e-4),
		Origin: o,
		Conv:   conv,
		Fixed:  fc,
	})
	v, _ := p.focal(0, 0, p.Cfg.Conv.MetersToSamples(p.Cfg.Vol.Depth.At(0)))
	a := math.Sqrt(alpha - v.zz)
	for step := 0; float64(a*a)+v.zz != alpha; step++ {
		if step == 64 {
			t.Fatalf("no element offset puts the smallest argument on %v", alpha)
		}
		if float64(a*a)+v.zz < alpha {
			a = math.Nextafter(a, math.Inf(1))
		} else {
			a = math.Nextafter(a, 0)
		}
	}
	p.elemX = []float64{-3 * a, -a, a, 3 * a}
	p.elemY = []float64{0}
	p.provePitch()
	return p
}

// roundingTells reports whether one of p's voxels has an argument below
// ArgMin where the lanes' half-up floor, taken anyway, would move an index:
// ⌊fl(x + 0.5)⌋ is 1 at x = 0.49999999999999994, where the rounding is 0.
func roundingTells(p *Provider) bool {
	dp := p.FixedDP.Integer()
	ln := dp.Lanes()
	tells := false
	eachPlane(p, 0, func(_ int, v voxel, xt2, yt2 []float64) {
		for _, y := range yt2 {
			for _, x := range xt2 {
				a := x + y + v.zz
				if a >= ln.ArgMin {
					continue
				}
				op := &dp.Ops[p.FixedDP.Base.Find(a)]
				// The raw result of the floor's t: the argument 1/2^ArgFrac.
				floored := dp.Raw(op, math.Floor(a*ln.ArgScale+0.5)/ln.ArgScale)
				tells = tells || dp.Index(v.txRaw+floored) != dp.Index(v.txRaw+dp.Raw(op, a))
			}
		}
	})
	return tells
}

// lowLines is a fill through a hand-built datapath: the served PWL with
// every line lowered k samples, so V0 is negative on the segments whose
// line value is below k, over a shallow sector of a wide-pitch aperture,
// transmitting from in front of the array. The lane proof must refuse it.
func lowLines(t *testing.T, k float64) *Provider {
	t.Helper()
	p := fixedProvider(Config{
		Vol:    scan.NewVolume(geom.Radians(140), geom.Radians(100), 60*conv.C/conv.Fs, 9, 7, 12),
		Arr:    xdcr.NewArray(8, 8, 12*conv.C/conv.Fs),
		Origin: geom.Vec3{Z: 30 * conv.C / conv.Fs},
		Conv:   conv,
	})
	segs := slices.Clone(p.Approx.Segments)
	for i := range segs {
		segs[i].C0 -= k
	}
	p.Approx = &sqrtapprox.Approx{Delta: p.Approx.Delta, Max: p.Approx.Max, Segments: segs}
	p.FixedDP = sqrtapprox.NewFixed(p.Approx, p.Cfg.Fixed)
	if ln := p.FixedDP.Integer().Lanes(); ln != nil {
		t.Fatalf("the lowered lines carry the lane proof: %+v", ln)
	}
	return p
}

// negativeSumTells reports whether a voxel of p whose transmit leg the
// guard admits has an element whose two-leg sum Index takes below zero,
// where the lanes' logical shift, taken anyway, would index far past the
// window instead.
func negativeSumTells(p *Provider) bool {
	dp := p.FixedDP.Integer()
	tells := false
	for id := range p.Cfg.Vol.Depth.N {
		eachPlane(p, id, func(_ int, v voxel, xt2, yt2 []float64) {
			if v.txRaw < 0 || v.txRaw >= sqrtapprox.LaneTxLimit {
				return
			}
			for _, y := range yt2 {
				for _, x := range xt2 {
					a := x + y + v.zz
					tells = tells || dp.Index(v.txRaw+dp.Raw(&dp.Ops[p.FixedDP.Base.Find(a)], a)) < 0
				}
			}
		})
	}
	return tells
}

// licenceCensus counts p's voxels over every nappe the licence covers and
// does not, read element by element (licensed) over the lane columns of
// the body the probes select.
func licenceCensus(p *Provider) (vec, scalar int) {
	ln := p.FixedDP.Integer().Lanes()
	cols := laneColumns(len(p.elemX), len(p.elemY))
	for id := range p.Cfg.Vol.Depth.N {
		eachPlane(p, id, func(_ int, v voxel, xt2, yt2 []float64) {
			if licensed(ln, cols, xt2, yt2, v) {
				vec++
			} else {
				scalar++
			}
		})
	}
	return vec, scalar
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
		if v := conform(t, all(c.clause, c.p)); v.census[hostRoutes()[0].name].vec != 0 {
			t.Errorf("%s: the lane body took %d voxels", c.clause, v.census[hostRoutes()[0].name].vec)
		}
	}
}

func TestLaneFillAllocations(t *testing.T) { eachBody(t, fillAllocations) }

func TestLaneFillConcurrentSharedTables(t *testing.T) { eachBody(t, concurrentFills) }

// TestTermExtremesMatchScan is the derived guard's oracle on the element
// grids the fills run — both axes of both served grids and of every
// lane-suite geometry — and TestTermExtremesNearMidpoints on hand-built
// ascending, descending and jittered pitch grids (elements up to a fifth
// of a pitch off their nominal place, inside the precondition's quarter).
// On each, s sweeps every gap from a quarter pitch before it to a quarter
// past, and ulp by ulp across its midpoint, and the extremes termExtremes
// derives must equal, bit for bit, the smallest and largest term — over
// the whole axis and over the leading NX&^3 elements the four-lane body
// takes. On the jittered grids round((s−e[0])/pitch) names the wrong
// element over part of each gap, which only the ±1 neighbours repair: the
// hand-built row counts those points and requires some.
func TestTermExtremesMatchScan(t *testing.T) {
	var grids [][]float64
	for _, s := range laneShapes() {
		p := fixedProvider(s.config())
		grids = append(grids, p.elemX, p.elemY)
	}
	for _, g := range benchGrids {
		p := fixedProvider(g.cfg)
		grids = append(grids, p.elemX, p.elemY)
	}
	extremesSweep(t, grids)
}

func TestTermExtremesNearMidpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var grids [][]float64
	for _, n := range []int{2, 3, 12, 16, 17, 100} {
		pitch := 3.87 + rng.Float64()
		even, jitter := make([]float64, n), make([]float64, n)
		for i := range even {
			even[i] = (float64(i) - float64(n-1)/2) * pitch
			jitter[i] = even[i]
			if i > 0 && i < n-1 {
				jitter[i] += (rng.Float64() - 0.5) * 0.4 * pitch
			}
		}
		back := slices.Clone(jitter)
		slices.Reverse(back)
		grids = append(grids, even, jitter, back)
	}
	if repaired := extremesSweep(t, grids); repaired == 0 {
		t.Fatal("the rounded index always named the nearest element: the ±1 neighbours went untested")
	} else {
		t.Logf("%d points where a ±1 neighbour held the smallest term", repaired)
	}
}

// extremesSweep holds termExtremes to the scanned extremes over grids and
// returns at how many points the rounded index missed the nearest element.
func extremesSweep(t *testing.T, grids [][]float64) (repaired int) {
	t.Helper()
	for _, e := range grids {
		inv, ok := pitchInv(e)
		if !ok {
			t.Fatalf("grid %v failed the pitch precondition", e)
		}
		terms := make([]float64, len(e))
		check := func(s float64) {
			for i, x := range e {
				d := s - x
				terms[i] = d * d
			}
			for _, n := range []int{len(e), len(e) &^ 3} {
				if n == 0 {
					continue
				}
				lo, hi := termExtremes(e[:n], inv, s)
				slo, shi := scanExtremes(terms[:n])
				if math.Float64bits(lo) != math.Float64bits(slo) || math.Float64bits(hi) != math.Float64bits(shi) {
					t.Fatalf("axis of %d of %d, s=%v: derived [%v, %v], scanned [%v, %v]", n, len(e), s, lo, hi, slo, shi)
				}
			}
			k := int(min(max((s-e[0])*inv, 0), float64(len(e)-1)) + 0.5)
			if terms[k] != slices.Min(terms) {
				repaired++
			}
		}
		for i := 0; i+1 < len(e); i++ {
			for f := -0.25; f <= 1.25; f += 1.0 / 64 {
				check(e[i] + f*(e[i+1]-e[i]))
			}
			mid := (e[i] + e[i+1]) / 2
			lo, hi := mid, mid
			for k := 0; k < 32; k++ {
				check(lo)
				check(hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
		}
	}
	return repaired
}

// TestPitchInv pins the precondition provePitch checks once per provider:
// finite, strictly monotone, every element within a quarter pitch of its
// nominal place.
func TestPitchInv(t *testing.T) {
	for _, c := range []struct {
		name string
		e    []float64
		ok   bool
	}{
		{"ascending", []float64{-3, -1, 1, 3}, true},
		{"descending", []float64{3, 1, -1, -3}, true},
		{"one element", []float64{7}, true},
		{"jitter within a quarter pitch", []float64{0, 2.4, 4, 6}, true},
		{"no elements", nil, false},
		{"jitter past a quarter pitch", []float64{0, 2.6, 4, 6}, false},
		{"equal neighbours", []float64{0, 2, 2, 6}, false},
		{"swapped neighbours", []float64{0, 4, 2, 6}, false},
		{"NaN", []float64{0, math.NaN(), 4, 6}, false},
		{"NaN alone", []float64{math.NaN()}, false},
		{"+Inf end", []float64{0, 2, 4, math.Inf(1)}, false},
		{"overflowing pitch", []float64{-math.MaxFloat64, 0, math.MaxFloat64}, false},
	} {
		inv, ok := pitchInv(c.e)
		if ok != c.ok {
			t.Errorf("%s %v: ok = %v, want %v", c.name, c.e, ok, c.ok)
		}
		if ok && len(c.e) > 1 && inv*(c.e[len(c.e)-1]-c.e[0]) != float64(len(c.e)-1) {
			t.Errorf("%s: 1/pitch = %v", c.name, inv)
		}
	}
}
