//go:build amd64 && !purego

package tablefree

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/sqrtapprox"
)

// fillKernelBody names the body fixedPlane runs on this host for a proven
// datapath: cpufeat.AVX2, probed once at init, is the one runtime decision.
func fillKernelBody() string {
	if cpufeat.AVX2 {
		return "avx2"
	}
	return "ref"
}

// planeArgs is fillPlaneAVX2's operand block; kernel_vec_amd64.s addresses
// the fields through go_asm.h, so their order is free.
type planeArgs struct {
	dst       *int16            // ny rows of nx slots; the leading nVec of each row are written
	xt2       *float64          // nVec column terms
	yt2       *float64          // ny row terms
	ops       *sqrtapprox.SegOp // the voxel's lowest segment
	nx        int
	nVec      int // multiple of 4, ≤ nx
	ny        int
	nExtra    int // segments above *ops the voxel's arguments reach
	zz        float64
	txRaw     int64 // |txRaw| < sqrtapprox.LaneTxLimit
	argScale  float64
	prodHalf  int64
	prodShift uint64
	outHalf   int64
	outShift  uint64
}

// fillPlaneAVX2 is the lane body (kernel_vec_amd64.s): four float64
// arguments (xt2[i] + yt2[j]) + zz at a time, each lane's segment operands
// selected by compare-and-blend from ops[0..nExtra], then Raw and Index in
// 32-bit integer lanes and a saturating pack to int16. It checks nothing:
// vecPlane's guard and sqrtapprox's lane proof are its whole contract.
//
//go:noescape
func fillPlaneAVX2(a *planeArgs)

// vecPlane runs the AVX2 body over the leading len(xt2)&^3 columns of every
// row of one voxel's plane and reports how many columns it took — 0 when
// the host has no AVX2, the datapath carries no lane proof, or this voxel
// fails the guard the proof is conditioned on: its largest argument within
// Lanes.ArgMax (negated so that a NaN sum fails too) and its transmit leg
// within LaneTxLimit. cur is the carried segment cursor; the voxel's lowest
// segment is returned in its place.
func vecPlane(plane []int16, xt2, yt2 []float64, zz float64, txRaw int64, dp *sqrtapprox.IntDatapath, cur int) (done, next int) {
	ln := dp.Lanes()
	nVec := len(xt2) &^ 3
	if ln == nil || !cpufeat.AVX2 || nVec == 0 || len(yt2) == 0 {
		return 0, cur
	}
	xmin, xmax := minMax(xt2[:nVec])
	ymin, ymax := minMax(yt2)
	amax := xmax + ymax + zz
	if !(amax <= ln.ArgMax) || txRaw <= -sqrtapprox.LaneTxLimit || txRaw >= sqrtapprox.LaneTxLimit {
		return 0, cur
	}
	segLo, segHi := segSpan(dp.Ops, xmin+ymin+zz, amax, cur)
	_ = plane[len(xt2)*len(yt2)-1] // the body writes rows at stride len(xt2)
	fillPlaneAVX2(&planeArgs{
		dst: &plane[0], xt2: &xt2[0], yt2: &yt2[0], ops: &dp.Ops[segLo],
		nx: len(xt2), nVec: nVec, ny: len(yt2), nExtra: segHi - segLo,
		zz: zz, txRaw: txRaw,
		argScale: ln.ArgScale, prodHalf: ln.ProdHalf, prodShift: ln.ProdShift,
		outHalf: ln.OutHalf, outShift: ln.OutShift,
	})
	return nVec, segLo
}

// minMax returns the extremes of v, which must not be empty. Plain compares:
// the min/max builtins' NaN and signed-zero handling costs a sixth of the
// fill here.
func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
