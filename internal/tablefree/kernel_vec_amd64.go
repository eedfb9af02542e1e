//go:build amd64 && !purego

package tablefree

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/sqrtapprox"
)

// fillKernelBody names the body lanes runs on this host for a proven
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
// fields its voxels share once (initLaneCall). fillPlaneAVX2 reads the row
// fields (nx, nVec, ny) and the per-voxel ones lanes sets (dst, ops,
// nExtra, zz, txOut), and takes the voxel's terms as arguments;
// fillVoxelsAVX512 reads the grid, permute and guard fields, takes its
// voxels as arguments and carries its segment cursor in ops.
type planeArgs struct {
	dst       *int16            // the plane's (the batch's first plane's) first slot
	elemX     *float64          // element columns, samples
	elemY     *float64          // element rows, samples
	ops       *sqrtapprox.SegOp // the voxel's lowest segment; the eight-lane body's carried cursor
	opsBase   *sqrtapprox.SegOp // the segment table's first entry
	opsLast   *sqrtapprox.SegOp // and its last
	nx        int
	nVec      int // multiple of 4, ≤ nx: the leading columns of each row written
	ny        int
	stride    int        // bytes per plane
	groups    *permGroup // planePerm.groups
	full      int
	last      uint16
	xMask     uint16
	yMask     uint16
	nExtra    int // segments above *ops the voxel's arguments reach
	zz        float64
	txOut     int64   // the transmit leg plus the index rounding half: in (0, 2^31)
	argMin    float64 // Lanes.ArgMin
	argMax    float64 // Lanes.ArgMax
	outHalf   int64
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

// fillVoxelsAVX512 is the eight-lane body over a batch of n voxels, 1 ≤ n
// ≤ 64, whose planes lie one after the other from a.dst. It skips the
// voxels refused marks, and per other voxel forms the column and row terms
// in four registers — (s − e)² by VSUBPD and VMULPD, planeTerms'
// operations — and their extremes (termExtremes' order: unsigned min and
// max of the bit patterns, over the lanes xMask and yMask keep); it
// refuses the voxel unless fl(fl(xlo + ylo) + zz) ≥ ArgMin and fl(fl(xhi +
// yhi) + zz) ≤ ArgMax (a NaN fails both), and otherwise walks its cursor
// to the smallest argument's segment and on to the largest's (Walk's step
// rule) and runs the plane in planePerm's groups: each group's terms
// gathered from the registers by a two-table permute, the segment select a
// k-mask compare and masked broadcasts, the rounding one fused
// multiply-add and a round-down conversion, Index in 64-bit lanes, and the
// last partial group's store masked. It returns refused with a bit added
// for every voxel it refused; their planes it leaves as they were. The
// transmit leg's guard is the caller's, marked in refused.
//
//go:noescape
func fillVoxelsAVX512(a *planeArgs, vox *voxel, n int, refused uint64) uint64

// laneCall is one fill's call of the lane body: the operand block, with the
// fields all the fill's voxels share set once, and which body it calls.
// nVec is how many leading columns of every row the body takes from a voxel
// that passes the guard, 0 when no voxel of the fill can reach a body.
type laneCall struct {
	a    planeArgs
	nVec int
	wide bool
	dp   *sqrtapprox.IntDatapath
	cur  int // the four-lane route's carried segment cursor
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
	lc.dp = dp
	a := &lc.a
	a.nx, a.nVec, a.ny = nx, lc.nVec, ny
	a.argMin, a.argMax, a.outHalf = ln.ArgMin, ln.ArgMax, ln.OutHalf
	a.argScale, a.prodHalf, a.prodShift, a.outShift = ln.ArgScale, ln.ProdHalf, ln.ProdShift, ln.OutShift
	if lc.wide {
		ops := dp.Ops
		a.ops, a.opsBase, a.opsLast = &ops[0], &ops[0], &ops[len(ops)-1]
		a.stride = 2 * nx * ny
		a.elemX, a.elemY = &p.elemX[0], &p.elemY[0]
		a.groups, a.full, a.last = &p.perm.groups[0], p.perm.full, p.perm.last
		a.xMask, a.yMask = p.perm.xMask, p.perm.yMask
	}
}

// lanes runs lc's lane body over a batch of voxels whose planes lie one
// after the other in planes, skipping those refused marks, and returns
// refused with a bit added for every voxel it did not take. It refuses a
// voxel outside the guard the lane proof is conditioned on: every argument
// its body takes within [Lanes.ArgMin, Lanes.ArgMax], negated so that a
// NaN fails too; the transmit leg's half, in [0, LaneTxLimit), is the
// caller's. The eight-lane body takes the whole batch and reads the
// arguments' extremes from the terms it forms; the four-lane route goes
// voxel by voxel, derives them from the element grids (termExtremes) and
// takes no voxel of a provider whose grids are not pitch grids. xt2 and
// yt2 are scratch.
func (p *Provider) lanes(planes []int16, vox []voxel, refused uint64, xt2, yt2 []float64, lc *laneCall) uint64 {
	a := &lc.a
	nE := a.nx * a.ny
	switch {
	case lc.nVec == 0 || !lc.wide && !p.pitchGrid:
		return allRefused(len(vox))
	case lc.wide:
		_ = planes[len(vox)*nE-1] // the body writes len(vox) planes
		a.dst = &planes[0]
		return fillVoxelsAVX512(a, &vox[0], len(vox), refused)
	}
	for k := range vox {
		if refused>>k&1 != 0 {
			continue
		}
		v := &vox[k]
		xlo, xhi := termExtremes(p.elemX[:lc.nVec], p.invPitchX, v.sx)
		ylo, yhi := termExtremes(p.elemY, p.invPitchY, v.sy)
		if !p.lanePlane(planes[k*nE:][:nE], v, xt2, yt2, lc, xlo+ylo+v.zz, xhi+yhi+v.zz) {
			refused |= 1 << k
		}
	}
	return refused
}

// lanePlane runs the four-lane body over one voxel whose arguments lie in
// [amin, amax], writing the leading lc.nVec columns of every row, and
// fixedRow the rest, and reports whether it took the voxel: it does not
// when [amin, amax] leaves [Lanes.ArgMin, Lanes.ArgMax].
func (p *Provider) lanePlane(plane []int16, v *voxel, xt2, yt2 []float64, lc *laneCall, amin, amax float64) bool {
	a := &lc.a
	if !(amin >= a.argMin) || !(amax <= a.argMax) {
		return false
	}
	segLo, segHi := segSpan(lc.dp.Ops, amin, amax, lc.cur)
	lc.cur = segLo
	p.planeTerms(v.sx, v.sy, xt2, yt2)
	_ = plane[a.nx*a.ny-1] // the body writes rows at stride nx
	a.dst, a.ops, a.nExtra = &plane[0], &lc.dp.Ops[segLo], segHi-segLo
	a.zz, a.txOut = v.zz, v.txRaw+a.outHalf
	fillPlaneAVX2(a, &xt2[0], &yt2[0])
	for cur, j := segLo, 0; lc.nVec < a.nx && j < a.ny; j++ {
		cur = fixedRow(plane[j*a.nx+lc.nVec:(j+1)*a.nx], xt2[lc.nVec:], yt2[j], v.zz, v.txRaw, lc.dp, cur)
	}
	return true
}
