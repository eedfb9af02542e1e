package tablefree

import (
	"math"
	"math/bits"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/sqrtapprox"
)

// Layout implements delay.BlockProvider.
func (p *Provider) Layout() delay.Layout {
	return delay.Layout{
		NTheta: p.Cfg.Vol.Theta.N, NPhi: p.Cfg.Vol.Phi.N,
		NX: p.Cfg.Arr.NX, NY: p.Cfg.Arr.NY,
	}
}

// FillNappe16 implements delay.BlockProvider with the §IV-B geometry
// decomposition applied at block granularity: per voxel, the transmit leg
// √|S−O|² is approximated once and shared by the whole element plane (in
// hardware it is "computed only once and then distributed to all the
// element-specific units"), the squared x terms are computed once per
// transducer column and the squared y/z terms once per row, and the receive
// square roots are evaluated as one batch through the incremental segment
// cursor instead of a binary search per element. That is one route: the
// fixed datapath — the form the serving stack builds — through the fused
// integer kernel (fillNappe16Fixed). The ideal PWL, and a FixedConfig the
// integer form does not cover, fill through the scalar law
// (delay.ScalarAdapter). Every slot is Index16(DelaySamples(…)): the argument
// association order and the PWL evaluation are unchanged, only their
// schedule is.
func (p *Provider) FillNappe16(id int, dst delay.Block16) {
	if p.UseFixed {
		if dp := p.FixedDP.Integer(); dp != nil {
			p.fillNappe16Fixed(id, dst, dp)
			return
		}
	}
	(&delay.ScalarAdapter{P: p, L: p.Layout()}).FillNappe16(id, dst)
}

// stackTerms is the most float64 scratch (per-voxel squared terms: one per
// element column plus one per row) that lives on a fill's stack; wider
// apertures pay one allocation per nappe.
const stackTerms = 512

// voxel is one focal point's share of the §IV-B decomposition: its
// coordinates on the two element axes, the depth term Sz² every element
// shares, and the transmit leg in raw OutFrac units. kernel_vec_amd64.s
// reads a batch of them through go_asm.h.
type voxel struct {
	sx, sy, zz float64
	txRaw      int64
}

// batchVoxels is the most voxels one lane call takes: its refusal mask has
// a bit per voxel.
const batchVoxels = 64

// fillNappe16Fixed is the §IV-B unit as integer arithmetic: per element,
// two float additions form the argument, the segment cursor steps to its
// piece, and one rounding, one multiply, two rounding shifts and two adds
// on int64 produce the saturated sample index — sqrtapprox.IntDatapath
// holds the per-segment operands and the hoisted shift constants. The
// transmit leg joins as a raw OutFrac integer: both legs are exact
// multiples of 2^−OutFrac, so the float sum DelaySamples forms is exact and
// equals the integer sum, and rounding that integer is math.Round of the
// float. Each leg carries its own segment cursor from voxel to voxel,
// sqrtapprox.Walk, which lands where FixedApprox.Eval's Find does. Every
// slot is bit-identical to Index16(DelaySamples(...)).
//
// The nappe goes in batches of up to batchVoxels voxels, held on the
// stack: one pass places them and forms their transmit legs, marking a leg
// outside [0, LaneTxLimit) refused; the host's lane body (lanes) takes the
// rest, refusing those outside its licence, and fixedRow emits every plane
// refused (fixedPlanes).
func (p *Provider) fillNappe16Fixed(id int, dst delay.Block16, dp *sqrtapprox.IntDatapath) {
	l := p.Layout()
	var stack [stackTerms]float64
	terms := stack[:]
	if l.NX+l.NY > stackTerms {
		terms = make([]float64, l.NX+l.NY)
	}
	// Per-column (Sx−xD)² and per-row (Sy−yD)², formed per voxel where a
	// route reads them.
	xt2, yt2 := terms[:l.NX], terms[l.NX:l.NX+l.NY]
	ops := dp.Ops
	nE := l.VoxelStride()
	rx, tx := 0, 0 // receive and transmit segment cursors
	var lc laneCall
	p.initLaneCall(&lc, dp)
	r := p.Cfg.Conv.MetersToSamples(p.Cfg.Vol.Depth.At(id))
	dst = dst[:l.BlockLen()]
	var batch [batchVoxels]voxel
	it, ip := 0, 0
	for left := l.NTheta * l.NPhi; left > 0; left -= batchVoxels {
		vox := batch[:min(left, batchVoxels)]
		var refused uint64
		for k := range vox {
			v, argTx := p.focal(it, ip, r)
			tx = sqrtapprox.Walk(ops, tx, argTx)
			v.txRaw = dp.Raw(&ops[tx], argTx)
			if txOutside(v.txRaw) {
				refused |= 1 << k
			}
			vox[k] = v
			if ip++; ip == l.NPhi {
				it, ip = it+1, 0
			}
		}
		planes := dst[:len(vox)*nE]
		refused = p.lanes(planes, vox, refused, xt2, yt2, &lc)
		rx = p.fixedPlanes(planes, vox, refused, xt2, yt2, dp, rx)
		dst = dst[len(planes):]
	}
}

// focal places the voxel at radius r (samples) on line (it, ip) as §IV-B
// decomposes it: Sx and Sy, the shared Sz², and the transmit argument
// |S−O|². Each element's receive argument is (xt2[ei] + yt2[ej]) + zz,
// args' association order, with the terms planeTerms forms.
func (p *Provider) focal(it, ip int, r float64) (v voxel, argTx float64) {
	// geom.SphericalToCartesian with the per-axis sin/cos hoisted.
	rc := r * p.cosPhi[ip]
	sx, sy, sz := rc*p.sinTheta[it], r*p.sinPhi[ip], rc*p.cosTheta[it]
	dx := sx - p.originS.X
	dy := sy - p.originS.Y
	dz := sz - p.originS.Z
	return voxel{sx: sx, sy: sy, zz: sz * sz}, dx*dx + dy*dy + dz*dz
}

// planeTerms writes a voxel's per-column (Sx−xD)² into xt2 and per-row
// (Sy−yD)² into yt2.
func (p *Provider) planeTerms(sx, sy float64, xt2, yt2 []float64) {
	for ei, ex := range p.elemX {
		xt := sx - ex
		xt2[ei] = xt * xt
	}
	for ej, ey := range p.elemY {
		yt := sy - ey
		yt2[ej] = yt * yt
	}
}

// txOutside reports a transmit leg outside [0, LaneTxLimit): the half of
// the lane guard checked before a batch reaches lanes.
func txOutside(raw int64) bool { return raw < 0 || raw >= sqrtapprox.LaneTxLimit }

// fixedPlanes emits through fixedRow — the executable specification — the
// whole plane of every voxel refused marks, planes holding vox's planes
// one after the other, and returns the segment cursor for the next.
func (p *Provider) fixedPlanes(planes []int16, vox []voxel, refused uint64, xt2, yt2 []float64, dp *sqrtapprox.IntDatapath, cur int) int {
	nE := len(xt2) * len(yt2)
	for ; refused != 0; refused &= refused - 1 {
		k := bits.TrailingZeros64(refused)
		v := &vox[k]
		p.planeTerms(v.sx, v.sy, xt2, yt2)
		plane := planes[k*nE:]
		for _, y2 := range yt2 {
			cur = fixedRow(plane[:len(xt2)], xt2, y2, v.zz, v.txRaw, dp, cur)
			plane = plane[len(xt2):]
		}
	}
	return cur
}

// allRefused is the refusal mask of a batch of n voxels that no lane body
// takes.
func allRefused(n int) uint64 { return ^uint64(0) >> (batchVoxels - n) }

// provePitch checks, once per provider, the precondition termExtremes
// rests on: both element axes are pitch grids (pitchInv). A provider that
// fails it sends every voxel the four-lane route would take to fixedRow.
func (p *Provider) provePitch() {
	var okX, okY bool
	p.invPitchX, okX = pitchInv(p.elemX)
	p.invPitchY, okY = pitchInv(p.elemY)
	p.pitchGrid = okX && okY
}

// pitchInv reports whether e is a pitch grid — finite, strictly monotone,
// and every element within a quarter pitch of e[0] + i·pitch — and returns
// 1/pitch (0 for one element). On such a grid the element nearest a point
// u pitches from e[0] is within one of round(u): termExtremes' ±1.
func pitchInv(e []float64) (inv float64, ok bool) {
	n := len(e)
	if n == 0 {
		return 0, false
	}
	pitch := 0.0
	if n > 1 {
		pitch = (e[n-1] - e[0]) / float64(n-1)
		inv = 1 / pitch
	}
	for i, x := range e {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, false
		}
		if i > 0 && !(pitch > 0 && x > e[i-1] || pitch < 0 && x < e[i-1]) {
			return 0, false
		}
		if !(math.Abs(x-(e[0]+float64(i)*pitch)) <= math.Abs(pitch)/4) {
			return 0, false
		}
	}
	return inv, true
}

// termExtremes returns the smallest and largest of the terms
// fl(fl(s−e[i])²) over a pitch grid e (inv = 1/pitch), without forming
// them. Rounding is monotone, so fl(s−e[i]) is monotone in i and its
// rounded square falls then rises: the largest term is an endpoint's, and
// the smallest is the nearest element's, whose index is within one of
// round((s−e[0])·inv). A NaN s makes the largest NaN, which fails the
// guard; the index stays in range for any s.
func termExtremes(e []float64, inv, s float64) (lo, hi float64) {
	n := len(e)
	// The terms are squares, never −0, so their float64 order is the order
	// of their bit patterns as unsigned integers, a NaN above +Inf: integer
	// min and max compile to conditional moves, and each product is
	// rounded on its own, as planeTerms stores it (no fused multiply-add).
	sq := func(x float64) uint64 { d := s - x; return math.Float64bits(d * d) }
	hi = math.Float64frombits(max(sq(e[0]), sq(e[n-1])))
	k := 0
	if q := (s - e[0]) * inv; q > 0 {
		if q > float64(n-1) {
			q = float64(n - 1)
		}
		k = int(q + 0.5)
	}
	b := sq(e[k])
	if k > 0 {
		b = min(b, sq(e[k-1]))
	}
	if k < n-1 {
		b = min(b, sq(e[k+1]))
	}
	return math.Float64frombits(b), hi
}

// maxPermAxis is the widest aperture axis a planePerm covers: each axis's
// terms fill at most two eight-lane registers, which one two-table permute
// indexes.
const maxPermAxis = 16

// permGroup is one eight-slot group of a voxel plane: the column and the
// row of each slot, the permute indices that gather its xt2 and yt2 terms.
// They are stored as the qword lanes the permute reads, so a group costs
// two plain loads rather than two widening ones.
type permGroup struct{ col, row [8]uint64 }

// planePerm walks an nx×ny element plane, row-major as Block16 lays it out,
// as ⌈nx·ny/8⌉ groups of eight consecutive slots regardless of where rows
// end. The last group's slots past the plane index column 0 of row 0 and
// are masked off its store.
type planePerm struct {
	nx, ny int
	groups []permGroup
	full   int    // groups whose eight slots are all in the plane
	last   uint16 // store mask of the group after them, 0 when there is none
	xMask  uint16 // one bit per column: the lanes the elemX load and the extremes read
	yMask  uint16 // one bit per row
}

// newPlanePerm builds the permute table of an nx×ny plane, or returns nil
// when either axis is wider than maxPermAxis.
func newPlanePerm(nx, ny int) *planePerm {
	if nx < 1 || ny < 1 || nx > maxPermAxis || ny > maxPermAxis {
		return nil
	}
	n := nx * ny
	pp := &planePerm{
		nx: nx, ny: ny,
		groups: make([]permGroup, (n+7)/8),
		full:   n / 8,
		last:   uint16(1)<<(n%8) - 1,
		xMask:  uint16(1<<nx - 1),
		yMask:  uint16(1<<ny - 1),
	}
	for k := 0; k < n; k++ {
		g := &pp.groups[k/8]
		g.col[k%8], g.row[k%8] = uint64(k%nx), uint64(k/nx)
	}
	return pp
}

// segSpan returns the segments of the smallest and largest argument a plane
// can form, fl(fl(x+y)+zz) over the extremes of its column and row terms:
// float addition is monotone, so every element's argument — and, segments
// ascending, its segment — lies between them. The cursor walk is fixedRow's.
func segSpan(ops []sqrtapprox.SegOp, amin, amax float64, cur int) (lo, hi int) {
	lo = sqrtapprox.Walk(ops, cur, amin)
	return lo, sqrtapprox.Walk(ops, lo, amax)
}

// fixedRow emits one element row of one voxel: xt2 holds the row's column
// terms, yt2 and zz its shared row and depth terms (summed in DelaySamples'
// association order), txRaw the voxel's transmit leg. It returns the segment
// cursor for the next row. Kept out of line so the loop's operands stay in
// registers.
func fixedRow(row []int16, xt2 []float64, yt2, zz float64, txRaw int64, dp *sqrtapprox.IntDatapath, cur int) int {
	ops := dp.Ops
	last := len(ops) - 1
	row = row[:len(xt2)]
	for ei, x2 := range xt2 {
		alpha := x2 + yt2 + zz
		// sqrtapprox.Walk's step rule, written out: inlined here, Walk
		// measured about 3 % slower in this loop.
		for cur < last && alpha >= ops[cur].Hi {
			cur++
		}
		for cur > 0 && alpha < ops[cur].Lo {
			cur--
		}
		idx := dp.Index(txRaw + dp.Raw(&ops[cur], alpha))
		row[ei] = int16(min(max(idx, math.MinInt16), math.MaxInt16))
	}
	return cur
}
