//go:build amd64 && !purego

package tablefree

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/sqrtapprox"
)

// fillKernelBody names the body fixedPlane runs on this host for a proven
// datapath whose aperture a planePerm covers: cpufeat.AVX512 and
// cpufeat.AVX2, probed once at init, are the one runtime decision. Wider
// apertures take the AVX2 body on either vector host.
func fillKernelBody() string {
	switch {
	case cpufeat.AVX512:
		return "avx512"
	case cpufeat.AVX2:
		return "avx2"
	}
	return "ref"
}

// planeArgs is the lane bodies' operand block; kernel_vec_amd64.s addresses
// the fields through go_asm.h, so their order is free. A fill sets the
// fields its voxels share once (initLaneCall) and the rest per voxel
// (lanes). fillPlaneAVX2 reads the row fields (nx, nVec, ny) and takes the
// voxel's terms as arguments, fillPlaneAVX512 the grid and permute fields.
type planeArgs struct {
	dst       *int16            // the plane's first slot
	elemX     *float64          // element columns, samples
	elemY     *float64          // element rows, samples
	sx, sy    float64           // the voxel on the element axes
	ops       *sqrtapprox.SegOp // the voxel's lowest segment
	nx        int
	nVec      int // multiple of 4, ≤ nx: the leading columns of each row written
	ny        int
	groups    *permGroup // planePerm.groups
	full      int
	last      uint16
	xMask     uint16
	yMask     uint16
	nExtra    int // segments above *ops the voxel's arguments reach
	zz        float64
	txOut     int64 // the transmit leg plus the index rounding half: in (0, 2^31)
	argScale  float64
	prodHalf  int64
	prodShift uint64
	outShift  uint64
}

// fillPlaneAVX2 is the four-lane body (kernel_vec_amd64.s): four float64
// arguments (xt2[i] + yt2[j]) + zz at a time, each lane's segment operands
// selected by compare-and-blend from ops[0..nExtra], the argument rounded
// as ⌊fl(α·2^ArgFrac + 0.5)⌋, then Raw in 64-bit and Index in 32-bit
// integer lanes and a saturating pack to int16. It checks nothing: the
// guard in lanes and sqrtapprox's lane proof are its whole contract.
//
//go:noescape
func fillPlaneAVX2(a *planeArgs, xt2, yt2 *float64)

// fillPlaneAVX512 is the eight-lane body: it forms the column and row
// terms in four registers — (s − e)² by VSUBPD and VMULPD, planeTerms'
// operations — then runs the same stages over the whole plane in
// planePerm's groups, each group's terms gathered from those registers by
// a two-table permute, the segment select a k-mask compare and masked
// broadcasts, the rounding one fused multiply-add and a round-down
// conversion, Index in 64-bit lanes, and the last partial group's store
// masked. Like fillPlaneAVX2 it checks nothing.
//
//go:noescape
func fillPlaneAVX512(a *planeArgs)

// laneCall is one fill's call of the lane body: the operand block, with the
// fields all the fill's voxels share set once, and which body it calls.
// nVec is how many leading columns of every row the body takes from a voxel
// that passes the guard, 0 when no voxel of the fill can reach a body.
type laneCall struct {
	a              planeArgs
	nVec           int
	wide           bool
	ops            []sqrtapprox.SegOp
	argMin, argMax float64
	outHalf        int64
}

// initLaneCall prepares lc for filling p's planes through datapath dp. The
// body is the eight-lane one, over every column, when the host has AVX-512
// and p.perm is its aperture's table; else the AVX2 body over the leading
// nx&^3. There is none without AVX2 or without dp's lane proof.
func (p *Provider) initLaneCall(lc *laneCall, dp *sqrtapprox.IntDatapath) {
	nx, ny := len(p.elemX), len(p.elemY)
	ln := dp.Lanes()
	if ln == nil || ny == 0 || !cpufeat.AVX2 {
		return
	}
	lc.wide = cpufeat.AVX512 && p.perm != nil && p.perm.nx == nx && p.perm.ny == ny
	lc.nVec = nx &^ 3
	if lc.wide {
		lc.nVec = nx
	}
	lc.ops, lc.argMin, lc.argMax = dp.Ops, ln.ArgMin, ln.ArgMax
	lc.outHalf = ln.OutHalf
	a := &lc.a
	a.nx, a.nVec, a.ny = nx, lc.nVec, ny
	a.argScale, a.prodHalf, a.prodShift, a.outShift = ln.ArgScale, ln.ProdHalf, ln.ProdShift, ln.OutShift
	if lc.wide {
		a.elemX, a.elemY = &p.elemX[0], &p.elemY[0]
		a.groups, a.full, a.last = &p.perm.groups[0], p.perm.full, p.perm.last
		a.xMask, a.yMask = p.perm.xMask, p.perm.yMask
	}
}

// lanes runs lc's lane body over a voxel whose arguments lie in [amin,
// amax], and reports how many leading columns of every row it took.
// Whenever it leaves columns, xt2 and yt2 hold the voxel's terms: the
// eight-lane body forms them in its registers, so they are written only on
// the other routes. It takes none when the voxel fails the guard the lane
// proof is conditioned on: [amin, amax] within [Lanes.ArgMin,
// Lanes.ArgMax] (negated so that a NaN fails too), and the transmit leg in
// [0, LaneTxLimit). cur is the carried segment cursor; the voxel's lowest
// segment is returned in its place.
func (p *Provider) lanes(plane []int16, v voxel, xt2, yt2 []float64, lc *laneCall, amin, amax float64, cur int) (done, next int) {
	if lc.nVec == 0 || !(amin >= lc.argMin) || !(amax <= lc.argMax) ||
		v.txRaw < 0 || v.txRaw >= sqrtapprox.LaneTxLimit {
		p.planeTerms(v.sx, v.sy, xt2, yt2)
		return 0, cur
	}
	segLo, segHi := segSpan(lc.ops, amin, amax, cur)
	a := &lc.a
	_ = plane[a.nx*a.ny-1] // the bodies write rows at stride nx
	a.dst, a.ops, a.nExtra = &plane[0], &lc.ops[segLo], segHi-segLo
	a.zz, a.txOut = v.zz, v.txRaw+lc.outHalf
	if lc.wide {
		a.sx, a.sy = v.sx, v.sy
		fillPlaneAVX512(a)
		return lc.nVec, segLo
	}
	p.planeTerms(v.sx, v.sy, xt2, yt2)
	fillPlaneAVX2(a, &xt2[0], &yt2[0])
	return lc.nVec, segLo
}
