// The TABLEFREE fill's conformance matrix. FillNappe16 must equal the
// scalar law, Index16(DelaySamples), slot for slot, through whichever body
// fills a voxel — the eight-lane and four-lane bodies, or fixedRow — and
// fixedRow itself must equal it wherever the datapath runs integer. One
// shape generator (fshape, the corpus functions, FuzzFillConformance)
// names the geometry; the twins are computed once per nappe, and every
// CPUID route the host offers (hostRoutes: the probes as the host set
// them, then cleared in turn) fills against them, with a census of the
// voxels each route's lane body took. Probes are package globals, so routes
// run one after the other, never under t.Parallel.
package tablefree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/xdcr"
)

// route is one CPUID route: the probes a host of that kind has, named after
// the fill body it runs.
type route struct {
	name         string
	avx2, avx512 bool
}

// eachBody runs f once per route this host offers, as a subtest named after
// it, with the probes set for it and restored after.
func eachBody(t *testing.T, f func(t *testing.T)) {
	for _, r := range hostRoutes() {
		t.Run(r.name, func(t *testing.T) {
			defer r.use()()
			if got := fillKernelBody(); got != r.name {
				t.Fatalf("body = %q on the %s route", got, r.name)
			}
			f(t)
		})
	}
}

// origins are the transmit origins the shapes fill from: on axis, off axis
// behind and in front of the array, and the four axial transmits the
// compound4_steer_half workload serves.
var origins = append([]geom.Vec3{{}, {X: 1.3e-3, Y: -0.7e-3, Z: -4e-3}, {X: -2e-3, Z: 3e-3}, {Y: 5e-3}},
	func() (o []geom.Vec3) {
		for _, tx := range delay.AxialTransmits(4, -10*1540/4e6, -30*1540/4e6) {
			o = append(o, tx.Origin)
		}
		return o
	}()...)

// fixedCfgs are the datapaths the shapes take: the default, and one with
// fractional argument bits.
var fixedCfgs = []sqrtapprox.FixedConfig{{}, {ArgFrac: 2, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6}}

// fshape is one geometry of the matrix: a Theta°×Phi° sector Depth m deep
// at pitch Pitch mm, sampled at {20, 32, 50} MHz[Fs], transmitting from
// origins[Origin] — or, if Derived ≥ 0, the unit derived from it at
// origins[Derived] — through fixedCfgs[Fixed]; every Stride-th nappe.
type fshape struct {
	NX, NY, NTh, NPh, NDep     int
	Theta, Phi, Depth, Pitch   float64
	Fs, Origin, Derived, Fixed int
	Stride                     int
}

func (s fshape) config() Config {
	return Config{
		Vol:    scan.NewVolume(geom.Radians(s.Theta), geom.Radians(s.Phi), s.Depth, s.NTh, s.NPh, s.NDep),
		Arr:    xdcr.NewArray(s.NX, s.NY, s.Pitch*1e-3),
		Origin: origins[s.Origin],
		Conv:   delay.Converter{C: 1540, Fs: []float64{20e6, 32e6, 50e6}[s.Fs]},
		Fixed:  fixedCfgs[s.Fixed],
	}
}

// fill is one provider the matrix runs, and the nappes it runs.
type fill struct {
	name string
	p    *Provider
	ids  []int
}

func (s fshape) fill(t testing.TB) fill {
	t.Helper()
	p := fixedProvider(s.config())
	if s.Derived >= 0 {
		q, err := p.WithTransmit(delay.Transmit{Origin: origins[s.Derived]})
		if err != nil {
			t.Fatal(err)
		}
		p = q.(*Provider)
	}
	var ids []int
	for id := 0; id < s.NDep; id += max(s.Stride, 1) {
		ids = append(ids, id)
	}
	return fill{fmt.Sprintf("%+v", s), p, ids}
}

// randomShapes draws trials geometries from seed, aperture k from
// aperture(k, draw), each from origins[k mod 4] and again derived at the
// next one.
func randomShapes(seed int64, trials, maxAxis, maxDep int, depth float64, aperture func(k int, draw func(n int) int) (int, int)) (out []fshape) {
	rng := rand.New(rand.NewSource(seed))
	for k := range trials {
		nx, ny := aperture(k, rng.Intn)
		s := fshape{NX: nx, NY: ny, Theta: 20 + 60*rng.Float64(), Phi: 10 + 70*rng.Float64(), Depth: 0.02 + depth*rng.Float64(),
			NTh: 1 + rng.Intn(maxAxis), NPh: 1 + rng.Intn(maxAxis), NDep: 1 + rng.Intn(maxDep), Pitch: 0.1 + 0.3*rng.Float64(),
			Fs: k % 3, Origin: k % 4, Derived: -1, Fixed: k % 2}
		out = append(out, s)
		s.Derived = (k + 1) % 4
		out = append(out, s)
	}
	return out
}

// laneShapes are the lane bodies' geometries: every row width class (below
// one group, exact groups, a paired group plus a single, each with and
// without a scalar tail), 1×N and N×1 apertures, planes whose slot count is
// not a multiple of eight (the eight-lane body's masked last group), 16
// against 17 on either axis and on both (its aperture limit), Table I's
// 100×100 aperture.
func laneShapes() []fshape {
	nxs := []int{1, 3, 4, 5, 8, 12, 16, 17, 32}
	shapes := [][2]int{{3, 5}, {1, 7}, {12, 13}, {13, 12}, {16, 16}, {16, 17}, {17, 16}, {12, 12}, {17, 17}, {100, 100}}
	return randomShapes(23, 3*len(nxs)+len(shapes), 5, 4, 0.15, func(k int, draw func(int) int) (int, int) {
		nx, ny := nxs[k%len(nxs)], []int{1, 2, 5, 9}[draw(4)]
		switch {
		case k >= 3*len(nxs):
			return shapes[k-3*len(nxs)][0], shapes[k-3*len(nxs)][1]
		case k >= 2*len(nxs):
			return ny, nx // the same widths down the slow axis
		}
		return nx, ny
	})
}

// rowShapes are small geometries for fixedRow and the scalar law: odd and
// even axes, 1×N and N×1 apertures, single-node angular axes.
func rowShapes() []fshape {
	apertures := [][2]int{{1, 7}, {6, 1}, {1, 1}, {5, 4}, {8, 3}, {3, 9}}
	return randomShapes(14, 36, 6, 5, 0.15, func(k int, _ func(int) int) (int, int) {
		return apertures[k%len(apertures)][0], apertures[k%len(apertures)][1]
	})
}

// servedShapes are the BENCHMARK grids (16×16 over 33×33×100, 12×12 over
// 25×25×80, 73° sectors 500 λ deep) from the on-axis transmit and the four
// axial ones; every 25th nappe.
func servedShapes() (out []fshape) {
	for _, g := range [][5]int{{16, 16, 33, 33, 100}, {12, 12, 25, 25, 80}} {
		for _, d := range []int{-1, 4, 5, 6, 7} {
			out = append(out, fshape{NX: g[0], NY: g[1], NTh: g[2], NPh: g[3], NDep: g[4], Theta: 73, Phi: 73,
				Depth: 500 * 1540 / 4e6, Pitch: 1540 / 4e6 / 2 * 1e3, Fs: 1, Derived: d, Stride: 25})
		}
	}
	return out
}

// census is what a route's lane body took over the nappes run: voxels
// through the lanes and through fixedRow alone, and the widest segment span
// of any voxel.
type census struct{ vec, scalar, span int }

// verdicts collect per route the first failure and the census, so one pass
// over the fills reports each route as its own subtest.
type verdicts struct {
	fail   map[string]string
	census map[string]census
	lo, hi int16 // the scalar law's smallest and largest index
}

// conform holds every fill's FillNappe16 on every route this host offers to
// the twins, and reports one subtest per route.
func conform(t *testing.T, fills ...fill) *verdicts {
	t.Helper()
	v := &verdicts{fail: map[string]string{}, census: map[string]census{}, lo: math.MaxInt16, hi: math.MinInt16}
	for _, f := range fills {
		v.check(t, f, hostRoutes())
	}
	for _, r := range hostRoutes() {
		t.Run(r.name, func(t *testing.T) {
			if msg := v.fail[r.name]; msg != "" {
				t.Fatal(msg)
			}
		})
	}
	return v
}

// check computes f's twins once per nappe — the scalar law, and the fixedRow
// path where the datapath runs integer, which must agree — and holds the
// fill on every route of rs to them.
func (v *verdicts) check(t *testing.T, f fill, rs []route) {
	t.Helper()
	l, dp := f.p.Layout(), f.p.FixedDP.Integer()
	if !f.p.UseFixed {
		dp = nil
	}
	twins := make([]delay.Block16, len(f.ids))
	rows := make(delay.Block16, l.BlockLen())
	for i, id := range f.ids {
		twins[i] = make(delay.Block16, l.BlockLen())
		for it := range l.NTheta {
			for ip := range l.NPhi {
				for ej := range l.NY {
					for ei := range l.NX {
						want := delay.Index16(f.p.DelaySamples(it, ip, id, ei, ej))
						twins[i][l.Index(it, ip, ei, ej)] = want
						v.lo, v.hi = min(v.lo, want), max(v.hi, want)
					}
				}
			}
		}
		if dp == nil {
			continue
		}
		refFill16(f.p, id, rows)
		for k := range rows {
			if rows[k] != twins[i][k] {
				t.Errorf("%s id=%d slot %d: fixedRow %d != scalar law %d", f.name, id, k, rows[k], twins[i][k])
				break
			}
		}
	}
	got := make(delay.Block16, l.BlockLen())
	for _, r := range rs {
		restore := r.use()
		if got := fillKernelBody(); got != r.name && v.fail[r.name] == "" {
			v.fail[r.name] = fmt.Sprintf("the %s route runs the %s body", r.name, got)
		}
		c := v.census[r.name]
		for i, id := range f.ids {
			f.p.FillNappe16(id, got)
			for k := range got {
				if got[k] != twins[i][k] && v.fail[r.name] == "" {
					v.fail[r.name] = fmt.Sprintf("%s id=%d slot %d: fill %d != scalar law %d", f.name, id, k, got[k], twins[i][k])
				}
			}
			if dp != nil {
				vec, scalar, span := nappeCensus(f.p, id)
				c.vec, c.scalar, c.span = c.vec+vec, c.scalar+scalar, max(c.span, span)
			}
		}
		v.census[r.name] = c
		restore()
	}
}

// lawFills holds p's fill on the route the probes stand at to the twins,
// for a test that already runs once per route (eachBody).
func lawFills(t *testing.T, name string, p *Provider) {
	v := &verdicts{fail: map[string]string{}, census: map[string]census{}}
	v.check(t, all(name, p), []route{currentRoute()})
	for _, msg := range v.fail {
		t.Fatal(msg)
	}
}

// currentRoute is the route the probes stand at.
func currentRoute() route { return route{fillKernelBody(), cpufeat.AVX2, cpufeat.AVX512} }

// laneRoutes are the routes with a lane body.
func laneRoutes() (rs []route) {
	for _, r := range hostRoutes() {
		if r.avx2 {
			rs = append(rs, r)
		}
	}
	return rs
}

// TestLaneFillMatchesRowsRandomGeometries is the matrix over laneShapes,
// each of which must carry the lane proof; every lane route must take some
// voxel through its body.
func TestLaneFillMatchesRowsRandomGeometries(t *testing.T) {
	var fills []fill
	for _, s := range laneShapes() {
		f := s.fill(t)
		if f.p.FixedDP.Integer().Lanes() == nil {
			t.Fatalf("%s must carry the lane proof", f.name)
		}
		fills = append(fills, f)
	}
	v := conform(t, fills...)
	for _, r := range laneRoutes() {
		if v.census[r.name].vec == 0 {
			t.Errorf("the %s body never ran: the comparison proved nothing about it", r.name)
		}
	}
}

// TestFusedFill16MatchesScalarRandomGeometries is the matrix over
// rowShapes, each of which must run the integer kernel.
func TestFusedFill16MatchesScalarRandomGeometries(t *testing.T) {
	var fills []fill
	for _, s := range rowShapes() {
		f := s.fill(t)
		if f.p.FixedDP.Integer() == nil {
			t.Fatalf("%s must run the integer kernel", f.name)
		}
		fills = append(fills, f)
	}
	conform(t, fills...)
}

// routeRows is the matrix over whole nappes of the served aperture, of a
// width with a scalar tail and, with more, of other widths, where on every
// lane route every voxel must take the lanes, and on the ref route none.
func routeRows(t *testing.T, more ...*Provider) {
	var fills []fill
	for _, p := range append([]*Provider{fixedProvider(smallConfig()), fixedProvider(blockSetup().Cfg)}, more...) {
		fills = append(fills, all(fmt.Sprintf("%dx%d", p.Cfg.Arr.NX, p.Cfg.Arr.NY), p))
	}
	v := conform(t, fills...)
	for _, r := range laneRoutes() {
		if c := v.census[r.name]; c.scalar != 0 {
			t.Errorf("%s route: %d voxels missed the lanes", r.name, c.scalar)
		}
	}
	if c := v.census["ref"]; c.vec != 0 || c.scalar == 0 {
		t.Errorf("ref route: %d voxels took a lane body, %d fixedRow", c.vec, c.scalar)
	}
}

// all is a fill over every nappe of p.
func all(name string, p *Provider) fill {
	ids := make([]int, p.Cfg.Vol.Depth.N)
	for id := range ids {
		ids[id] = id
	}
	return fill{name, p, ids}
}

// TestLaneNoAVX2Route is routeRows: the route an amd64 host without AVX2
// takes is one of the rows. TestLaneNoAVX512Route adds a plane whose last
// eight-slot group is partial (13×7; 8×5 has none), for the four-lane body
// an AVX2-only host runs.
func TestLaneNoAVX2Route(t *testing.T) { routeRows(t) }

func TestLaneNoAVX512Route(t *testing.T) {
	tail := smallConfig()
	tail.Arr = xdcr.NewArray(13, 7, 0.385e-3/2)
	routeRows(t, fixedProvider(tail))
}

// FuzzFillConformance runs the matrix on one generated geometry, each field
// clamped into the range the corpus draws from, and, when refuse marks any
// voxel, the refusal rows' check on its first nappe. Its seeds are the
// served shapes, every fifth lane and row shape, and the refusal rows of
// the first pattern, one per geometry and cause.
func FuzzFillConformance(f *testing.F) {
	var seeds []refusalRow
	for k, s := range append(append(servedShapes(), laneShapes()...), rowShapes()...) {
		if k < len(servedShapes()) || k%5 == 0 {
			seeds = append(seeds, refusalRow{s: s})
		}
	}
	for _, r := range refusalRows() {
		if r.refuse == refusalPatterns[0] {
			seeds = append(seeds, r)
		}
	}
	for _, r := range seeds {
		s := r.s
		f.Add(uint8(s.NX), uint8(s.NY), uint8(s.NTh), uint8(s.NPh), uint8(s.NDep), s.Theta, s.Phi, s.Depth, s.Pitch,
			uint8(s.Fs), uint8(s.Origin), int8(s.Derived), uint8(s.Fixed), uint8(s.Stride), r.refuse, uint8(r.cause))
	}
	f.Fuzz(func(t *testing.T, nx, ny, nth, nph, ndep uint8, theta, phi, depth, pitch float64, fs, origin uint8, derived int8, fixed, stride uint8, refuse uint64, cause uint8) {
		clamp := func(x, lo, hi float64) float64 {
			if math.IsNaN(x) {
				return lo
			}
			return min(max(x, lo), hi)
		}
		s := fshape{NX: max(int(nx)%101, 1), NY: max(int(ny)%101, 1), NTh: max(int(nth)%34, 1), NPh: max(int(nph)%71, 1),
			NDep: max(int(ndep)%101, 1), Theta: clamp(theta, 1, 80), Phi: clamp(phi, 1, 80), Depth: clamp(depth, 0.005, 0.2),
			Pitch: clamp(pitch, 0.05, 0.5), Fs: int(fs) % 3, Origin: int(origin) % len(origins),
			Derived: max(int(derived)%len(origins), -1), Fixed: int(fixed) % len(fixedCfgs), Stride: int(stride)}
		s.Stride = max(s.Stride, s.NDep/4)
		v := &verdicts{fail: map[string]string{}, census: map[string]census{}}
		fl := s.fill(t)
		v.check(t, fl, hostRoutes())
		for r, msg := range v.fail {
			t.Fatalf("%s route: %s", r, msg)
		}
		if refuse != 0 && fl.p.FixedDP.Integer().Lanes() != nil {
			refusals(t, refusalRow{s, 0, refuse, int(cause) % nCauses}, fl.p)
		}
	})
}

// TestLaneGuardTripsMidNappe shrinks the PWL domain to the median of one
// nappe's largest arguments, so that the per-voxel guard (αmax within the
// proven bound) passes and fails inside the same FillNappe16 call, and
// inside one batch: both routes write into one block, which the matrix
// holds to the scalar law.
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
	v := conform(t, fill{"shrunk domain", p, []int{id}})
	for _, r := range laneRoutes() {
		if c := v.census[r.name]; c.vec == 0 || c.scalar == 0 {
			t.Fatalf("%s route, nappe %d: %d voxels through the lanes, %d through the guard; want both", r.name, id, c.vec, c.scalar)
		}
	}
	conform(t, all("shrunk domain", p))
}

// The refusal causes the batch rows inject into a voxel.
const (
	causeTx        = iota // a transmit leg at or past LaneTxLimit, or below 0
	causeArgMin           // on an element at depth term ArgMin less an ulp: the smallest argument is below ArgMin
	causeNonFinite        // sx, sy or zz NaN or infinite, or sx and sy NaN: every argument of the plane is NaN or +Inf
	nCauses
)

// refusalRow is one refusal row: nappe id of shape s filled as
// fillNappe16Fixed batches it — its voxels placed by the fill's own pass,
// then lanes and fixedPlanes over each batch — with the voxels refuse
// marks (bit k mod 64 for the fill's voxel k) made to fail the lane guard
// by cause. Unmarked voxels next to a marked one sit on the guard's other
// side of the same edge where the cause has one: a transmit leg of
// LaneTxLimit−1, a smallest argument of exactly ArgMin.
type refusalRow struct {
	s      fshape
	id     int
	refuse uint64
	cause  int
}

// refusalPatterns are the refusal rows' patterns: alternating voxels
// either way round, with refusals at batch positions 0, 63 and 64; the two
// ends of every batch alone; every voxel.
var refusalPatterns = []uint64{0x5555555555555555 | 1<<63, 0xAAAAAAAAAAAAAAAA | 1, 1 | 1<<63, ^uint64(0)}

// refusalRows are the three causes over three geometries — 16×16 elements
// on lines of 70 voxels, so that batches cut lines; the small served grid;
// 13×7, whose four-lane route leaves a fixedRow tail and whose eight-lane
// route a partial last group — and the four refusalPatterns.
func refusalRows() (rows []refusalRow) {
	small := servedShapes()[len(servedShapes())/2]
	small.Stride = small.NDep // the matrix, as a fuzz seed, fills nappe 0 alone
	shapes := []fshape{
		{NX: 16, NY: 16, NTh: 2, NPh: 70, NDep: 4, Theta: 73, Phi: 73, Depth: 0.1925, Pitch: 0.1925, Fs: 1, Derived: -1, Stride: 4},
		small,
		{NX: 13, NY: 7, NTh: 9, NPh: 9, NDep: 3, Theta: 60, Phi: 50, Depth: 0.06, Pitch: 0.1925, Fs: 1, Origin: 1, Derived: -1, Fixed: 1, Stride: 3},
	}
	for _, s := range shapes {
		for _, refuse := range refusalPatterns {
			for cause := range nCauses {
				rows = append(rows, refusalRow{s, s.NDep / 2, refuse, cause})
			}
		}
	}
	return rows
}

// TestLaneRefusalRows runs the transmit-leg and ArgMin refusal rows.
func TestLaneRefusalRows(t *testing.T) {
	for _, r := range refusalRows() {
		if r.cause != causeNonFinite {
			refusals(t, r, r.s.fill(t).p)
		}
	}
}

// voxels returns the fill's voxels of nappe r.id, in the fill's order, with
// r's refusals injected.
func (r refusalRow) voxels(p *Provider) []voxel {
	ln := p.FixedDP.Integer().Lanes()
	var vox []voxel
	marked := func(k int) bool { return k >= 0 && r.refuse>>(k%batchVoxels)&1 != 0 }
	eachPlane(p, r.id, func(k int, v voxel, _, _ []float64) {
		edge := !marked(k) && (marked(k-1) || marked(k+1))
		onElement := func(zz float64) {
			v.sx, v.sy, v.zz = p.elemX[k%len(p.elemX)], p.elemY[k/3%len(p.elemY)], zz
		}
		switch {
		case r.cause == causeTx && marked(k):
			v.txRaw = []int64{sqrtapprox.LaneTxLimit, sqrtapprox.LaneTxLimit + 12345, 1 << 40, -1}[k%4]
		case r.cause == causeTx && edge:
			v.txRaw = sqrtapprox.LaneTxLimit - 1
		case r.cause == causeArgMin && marked(k):
			onElement(math.Nextafter(ln.ArgMin, 0))
		case r.cause == causeArgMin && edge:
			onElement(ln.ArgMin)
		case r.cause == causeNonFinite && marked(k):
			switch nan, inf := math.NaN(), math.Inf(1); k % 7 {
			case 0:
				v.sx = nan
			case 1:
				v.sy = nan
			case 2:
				v.zz = nan
			case 3:
				v.sx, v.sy = nan, nan
			case 4:
				v.sx = inf
			case 5:
				v.sy = -inf
			default:
				v.zz = inf
			}
		}
		vox = append(vox, v)
	})
	return vox
}

// refusals holds row r, on p, to its twins on every route this host
// offers: each batch's refusal mask must be exactly the voxels the licence,
// read element by element (licensed), does not cover; every voxel the
// lanes took must equal the fixedRow path and, on a finite argument, the
// scalar law on its arguments (Index16 of the two legs' FixedApprox.Eval); the
// lanes must leave a refused voxel's plane as it was; and the refused
// voxels must equal fixedRow run over them in order, its
// cursor carried from one to the next as fixedPlanes carries it — which a
// NaN argument, leaving the cursor where it stands, can tell.
func refusals(t *testing.T, r refusalRow, p *Provider) {
	t.Helper()
	dp := p.FixedDP.Integer()
	ln, nx, ny := dp.Lanes(), len(p.elemX), len(p.elemY)
	nE := nx * ny
	vox := r.voxels(p)
	xt2, yt2 := make([]float64, nx), make([]float64, ny)
	for _, rt := range hostRoutes() {
		restore := rt.use()
		cols := laneColumns(nx, ny)
		want, got := make([]int16, len(vox)*nE), make([]int16, len(vox)*nE)
		cur := 0 // the twin's fixedRow cursor over the refused voxels
		for k, v := range vox {
			p.planeTerms(v.sx, v.sy, xt2, yt2)
			if licensed(ln, cols, xt2, yt2, v) {
				rowsRef(want[k*nE:][:nE], xt2, yt2, v.zz, v.txRaw, dp)
				continue
			}
			for j, y2 := range yt2 {
				cur = fixedRow(want[k*nE+j*nx:][:nx], xt2, y2, v.zz, v.txRaw, dp, cur)
			}
		}
		lc := laneCallFor(p, dp)
		rx := 0
		for b := 0; b < len(vox); b += batchVoxels {
			batch := vox[b:min(b+batchVoxels, len(vox))]
			planes := got[b*nE : (b+len(batch))*nE]
			const canary = -7
			for s := range planes {
				planes[s] = canary
			}
			refused := p.lanes(planes, batch, txMask(batch), xt2, yt2, lc)
			var expect uint64
			for k, v := range batch {
				p.planeTerms(v.sx, v.sy, xt2, yt2)
				if !licensed(ln, cols, xt2, yt2, v) {
					expect |= 1 << k
				}
				if refused>>k&1 != 0 && slices.ContainsFunc(planes[k*nE:(k+1)*nE], func(s int16) bool { return s != canary }) {
					t.Errorf("%s %+v cause %d: the lanes wrote into refused voxel %d", rt.name, r.s, r.cause, b+k)
				}
			}
			if refused != expect {
				t.Errorf("%s %+v cause %d refuse %#x: batch at voxel %d refused %#x, the licence %#x", rt.name, r.s, r.cause, r.refuse, b, refused, expect)
			}
			rx = p.fixedPlanes(planes, batch, refused, xt2, yt2, dp, rx)
		}
		tx := func(v voxel) float64 { return math.Ldexp(float64(v.txRaw), -p.FixedDP.Cfg.OutFrac) }
	slots:
		for k, v := range vox {
			p.planeTerms(v.sx, v.sy, xt2, yt2)
			for e := range nE {
				if s := k*nE + e; got[s] != want[s] {
					t.Errorf("%s %+v cause %d refuse %#x voxel %d slot %d: fill %d != fixedRow %d", rt.name, r.s, r.cause, r.refuse, k, e, got[s], want[s])
					break slots
				}
				a := xt2[e%nx] + yt2[e/nx] + v.zz
				if law := delay.Index16(tx(v) + p.FixedDP.Eval(a)); !math.IsNaN(a) && !math.IsInf(a, 0) && want[k*nE+e] != law {
					t.Errorf("%s voxel %d slot %d: fixedRow %d != law %d", rt.name, k, e, want[k*nE+e], law)
					break slots
				}
			}
		}
		restore()
	}
}

// TestLaneGuardRejectsNaNTerms runs the non-finite refusal rows — a NaN
// or an infinity reaches the lane arguments through the voxel (sx, sy or
// zz) or through the element grid — and the grid rows. A NaN or infinite
// element refuses every voxel: the eight-lane body's extremes, a scan of
// the terms, fail the guard, and the grid fails the pitch precondition the
// four-lane route's derived extremes rest on (provePitch); the fill must
// equal the fixedRow path (the lane bodies do not match fixedRow on NaN
// arguments). Any other finite grid — elements swapped, equal, one of them
// 0.3 pitch off its place, descending — keeps the eight-lane body, keeps
// the four-lane one if it is still a pitch grid (descending), and fills ==
// the scalar law. The grid rows run every nappe of the reduced grid and
// every 16th of the small served one.
func TestLaneGuardRejectsNaNTerms(t *testing.T) {
	for _, r := range refusalRows() {
		if r.cause == causeNonFinite {
			refusals(t, r, r.s.fill(t).p)
		}
	}
	rng := rand.New(rand.NewSource(34))
	for _, c := range []struct {
		name          string
		bad           func(e []float64)
		finite, pitch bool
	}{
		{"NaN element", func(e []float64) { e[3] = math.NaN() }, false, false},
		{"+Inf element", func(e []float64) { e[1] = math.Inf(1) }, false, false},
		{"−Inf element", func(e []float64) { e[len(e)-1] = math.Inf(-1) }, false, false},
		{"two elements swapped", func(e []float64) { e[2], e[3] = e[3], e[2] }, true, false},
		{"two elements equal", func(e []float64) { e[1] = e[2] }, true, false},
		{"jittered", func(e []float64) {
			pitch := e[1] - e[0]
			for i := 1; i < len(e)-1; i++ {
				e[i] += (rng.Float64() - 0.5) * 0.4 * pitch
			}
			e[len(e)/2] = e[0] + (float64(len(e)/2)+0.3)*pitch
		}, true, false},
		{"descending", slices.Reverse[[]float64], true, true},
	} {
		for _, g := range []struct {
			name string
			cfg  Config
			step int
		}{{"reduced", blockSetup().Cfg, 1}, {"small", smallConfig(), 16}} {
			for _, axis := range []string{"x", "y"} {
				p := fixedProvider(g.cfg)
				e := p.elemX
				if axis == "y" {
					e = p.elemY
				}
				c.bad(e)
				p.provePitch()
				name := c.name + " on " + axis + " of the " + g.name + " grid"
				if p.pitchGrid != c.pitch {
					t.Errorf("%s: pitch grid %t, want %t", name, p.pitchGrid, c.pitch)
				}
				var ids []int
				for id := 0; id < p.Cfg.Vol.Depth.N; id += g.step {
					ids = append(ids, id)
				}
				if c.finite {
					v := conform(t, fill{name, p, ids})
					for _, r := range laneRoutes() {
						if took := v.census[r.name].vec > 0; took != (r.avx512 || c.pitch) {
							t.Errorf("%s, %s route: voxels took the lanes: %t", name, r.name, took)
						}
					}
					continue
				}
				want, got := make(delay.Block16, p.Layout().BlockLen()), make(delay.Block16, p.Layout().BlockLen())
				eachBody(t, func(t *testing.T) {
					for _, id := range ids {
						if vec, _, _ := nappeCensus(p, id); vec != 0 {
							t.Fatalf("%s, nappe %d: %d voxels took the lane body", name, id, vec)
						}
						refFill16(p, id, want)
						p.FillNappe16(id, got)
						if i := slices.Compare(got, want); i != 0 {
							t.Fatalf("%s, nappe %d: the fill differs from the fixedRow path", name, id)
						}
					}
				})
			}
		}
	}
}
