//go:build amd64 && !purego

package tablefree

import (
	"math"

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
// the fields through go_asm.h, so their order is free. fillPlaneAVX2 reads
// the row fields (nx, nVec, ny), fillPlaneAVX512 the permute ones.
type planeArgs struct {
	dst       *int16            // the plane's first slot
	xt2       *float64          // column terms
	yt2       *float64          // row terms
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
	txRaw     int64 // |txRaw| < sqrtapprox.LaneTxLimit
	argScale  float64
	prodHalf  int64
	prodShift uint64
	outHalf   int64
	outShift  uint64
}

// fillPlaneAVX2 is the four-lane body (kernel_vec_amd64.s): four float64
// arguments (xt2[i] + yt2[j]) + zz at a time, each lane's segment operands
// selected by compare-and-blend from ops[0..nExtra], then Raw and Index in
// 32-bit integer lanes and a saturating pack to int16. It checks nothing:
// vecPlane's guard and sqrtapprox's lane proof are its whole contract.
//
//go:noescape
func fillPlaneAVX2(a *planeArgs)

// fillPlaneAVX512 is the eight-lane body: the same stages over the whole
// plane in planePerm's groups, each group's terms gathered by a two-table
// permute from xt2 and yt2 held in registers, the segment select a k-mask
// compare and masked broadcasts, and the last partial group's store masked.
// Like fillPlaneAVX2 it checks nothing.
//
//go:noescape
func fillPlaneAVX512(a *planeArgs)

// vecPlane runs a lane body over one voxel's plane and reports how many
// leading columns of every row it took: all of them when the host has
// AVX-512 and perm is this plane's table, else the leading len(xt2)&^3
// through the AVX2 body. It takes none when the host has no AVX2, the
// datapath carries no lane proof, or this voxel fails the guard the proof
// is conditioned on: its largest argument over the columns taken within
// Lanes.ArgMax (negated so that a NaN sum fails too) and its transmit leg
// within LaneTxLimit. cur is the carried segment cursor; the voxel's lowest
// segment is returned in its place.
func vecPlane(plane []int16, xt2, yt2 []float64, zz float64, txRaw int64, dp *sqrtapprox.IntDatapath, perm *planePerm, cur int) (done, next int) {
	ln := dp.Lanes()
	if ln == nil || !cpufeat.AVX2 || len(yt2) == 0 {
		return 0, cur
	}
	wide := cpufeat.AVX512 && perm != nil && perm.nx == len(xt2) && perm.ny == len(yt2)
	nVec := len(xt2) &^ 3
	if wide {
		nVec = len(xt2)
	}
	if nVec == 0 {
		return 0, cur
	}
	xmin, xmax := minMax(xt2[:nVec])
	ymin, ymax := minMax(yt2)
	amax := xmax + ymax + zz
	if !(amax <= ln.ArgMax) || txRaw <= -sqrtapprox.LaneTxLimit || txRaw >= sqrtapprox.LaneTxLimit {
		return 0, cur
	}
	segLo, segHi := segSpan(dp.Ops, xmin+ymin+zz, amax, cur)
	_ = plane[len(xt2)*len(yt2)-1] // the bodies write rows at stride len(xt2)
	a := &planeArgs{
		dst: &plane[0], xt2: &xt2[0], yt2: &yt2[0], ops: &dp.Ops[segLo],
		nx: len(xt2), nVec: nVec, ny: len(yt2), nExtra: segHi - segLo,
		zz: zz, txRaw: txRaw,
		argScale: ln.ArgScale, prodHalf: ln.ProdHalf, prodShift: ln.ProdShift,
		outHalf: ln.OutHalf, outShift: ln.OutShift,
	}
	if wide {
		a.groups, a.full, a.last = &perm.groups[0], perm.full, perm.last
		a.xMask, a.yMask = perm.xMask, perm.yMask
		fillPlaneAVX512(a)
	} else {
		fillPlaneAVX2(a)
	}
	return nVec, segLo
}

// minMax returns the extremes of v, which must not be empty, both NaN if
// any element is NaN or carries a sign bit (the lane proof covers only
// 0 ≤ α, and the terms are squares). On such terms the float64 order is
// the order of the bit patterns as unsigned integers, with every NaN and
// every negative value above +Inf, so integer min and max — conditional
// moves — find the extremes without the branches that a parabola of column
// terms mispredicts.
func minMax(v []float64) (lo, hi float64) {
	l := math.Float64bits(v[0])
	h := l
	for _, x := range v[1:] {
		b := math.Float64bits(x)
		l, h = min(l, b), max(h, b)
	}
	if h > math.Float64bits(math.Inf(1)) {
		return math.NaN(), math.NaN()
	}
	return math.Float64frombits(l), math.Float64frombits(h)
}
