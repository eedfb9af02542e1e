package tablefree

import (
	"math"

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

// FillNappe implements delay.BlockProvider with the §IV-B geometry
// decomposition applied at block granularity: per voxel, the transmit leg
// √|S−O|² is approximated once and shared by the whole element plane (in
// hardware it is "computed only once and then distributed to all the
// element-specific units"), the squared x terms are computed once per
// transducer column and the squared y/z terms once per row, and the receive
// square roots are evaluated as one batch through the incremental segment
// cursor instead of a binary search per element. Results are bit-identical
// to DelaySamples: the argument association order and the PWL evaluation are
// unchanged, only their schedule is.
func (p *Provider) FillNappe(id int, dst []float64) {
	p.fillNappe(id, dst, nil)
}

// FillNappe16 implements delay.BlockProvider16. The fixed datapath — the
// form the serving stack builds — runs the fused integer kernel
// (fillNappe16Fixed); the ideal PWL, and a FixedConfig the integer form
// does not cover, take the generic sweep with delay.Index16 applied per
// voxel plane.
func (p *Provider) FillNappe16(id int, dst delay.Block16) {
	if p.UseFixed {
		if dp := p.FixedDP.Integer(); dp != nil {
			p.fillNappe16Fixed(id, dst, dp)
			return
		}
	}
	p.fillNappe(id, nil, dst)
}

// stackTerms is the most per-voxel squared terms (one per element column
// plus one per row) whose scratch lives on the fill's stack; wider
// apertures pay one allocation per nappe.
const stackTerms = 512

// fillNappe16Fixed is the §IV-B unit as integer arithmetic: per element,
// two float additions form the argument, the segment cursor steps to its
// piece, and one rounding, one multiply, two rounding shifts and two adds
// on int64 produce the saturated sample index — sqrtapprox.IntDatapath
// holds the per-segment operands and the hoisted shift constants. The
// transmit leg joins as a raw OutFrac integer: both legs are exact
// multiples of 2^−OutFrac, so the float sum DelaySamples forms is exact and
// equals the integer sum, and rounding that integer is math.Round of the
// float. Every slot is bit-identical to Index16(DelaySamples(...)).
func (p *Provider) fillNappe16Fixed(id int, dst delay.Block16, dp *sqrtapprox.IntDatapath) {
	l := p.Layout()
	var stack [stackTerms]float64
	terms := stack[:]
	if l.NX+l.NY > stackTerms {
		terms = make([]float64, l.NX+l.NY)
	}
	// Per-column (Sx−xD)² and per-row (Sy−yD)², refreshed per voxel.
	xt2, yt2 := terms[:l.NX], terms[l.NX:l.NX+l.NY]
	ops := dp.Ops
	nE := l.VoxelStride()
	cur := 0 // receive segment cursor, carried across rows and voxels
	r := p.Cfg.Conv.MetersToSamples(p.Cfg.Vol.Depth.At(id))
	dst = dst[:l.BlockLen()]
	for it := 0; it < l.NTheta; it++ {
		for ip := 0; ip < l.NPhi; ip++ {
			zz, argTx := p.planeTerms(it, ip, r, xt2, yt2)
			txRaw := dp.Raw(&ops[p.FixedDP.Base.Find(argTx)], argTx)
			cur = fixedPlane(dst[:nE], xt2, yt2, zz, txRaw, dp, cur)
			dst = dst[nE:]
		}
	}
}

// planeTerms decomposes the voxel at radius r (samples) on line (it, ip) as
// §IV-B does: the per-column (Sx−xD)² into xt2, the per-row (Sy−yD)² into
// yt2, and the shared Sz² and transmit argument |S−O|² as results. Each
// element's receive argument is (xt2[ei] + yt2[ej]) + zz, args' association
// order.
func (p *Provider) planeTerms(it, ip int, r float64, xt2, yt2 []float64) (zz, argTx float64) {
	// geom.SphericalToCartesian with the per-axis sin/cos hoisted.
	rc := r * p.cosPhi[ip]
	sx, sy, sz := rc*p.sinTheta[it], r*p.sinPhi[ip], rc*p.cosTheta[it]
	dx := sx - p.originS.X
	dy := sy - p.originS.Y
	dz := sz - p.originS.Z
	for ei, ex := range p.elemX {
		xt := sx - ex
		xt2[ei] = xt * xt
	}
	for ej, ey := range p.elemY {
		yt := sy - ey
		yt2[ej] = yt * yt
	}
	return sz * sz, dx*dx + dy*dy + dz*dz
}

// fixedPlane emits one voxel's element plane, len(yt2) rows of len(xt2)
// slots: the host's native lane body (vecPlane) takes the leading columns
// of every row when the datapath is proven and the voxel passes its guard,
// and fixedRow — the executable specification — takes whatever it left:
// the NX mod 4 tail, or the whole plane. It returns the segment cursor for
// the next voxel.
func fixedPlane(plane []int16, xt2, yt2 []float64, zz float64, txRaw int64, dp *sqrtapprox.IntDatapath, cur int) int {
	done, cur := vecPlane(plane, xt2, yt2, zz, txRaw, dp, cur)
	if done == len(xt2) {
		return cur
	}
	for _, y2 := range yt2 {
		cur = fixedRow(plane[done:len(xt2)], xt2[done:], y2, zz, txRaw, dp, cur)
		plane = plane[len(xt2):]
	}
	return cur
}

// segSpan returns the segments of the smallest and largest argument a plane
// can form, fl(fl(x+y)+zz) over the extremes of its column and row terms:
// float addition is monotone, so every element's argument — and, segments
// ascending, its segment — lies between them. The cursor walk is fixedRow's.
func segSpan(ops []sqrtapprox.SegOp, amin, amax float64, cur int) (lo, hi int) {
	last := len(ops) - 1
	for cur < last && amin >= ops[cur].Hi {
		cur++
	}
	for cur > 0 && amin < ops[cur].Lo {
		cur--
	}
	lo = cur
	for cur < last && amax >= ops[cur].Hi {
		cur++
	}
	return lo, cur
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

// fillNappe is the generic nappe sweep: exactly one of dst (float64 block)
// and dst16 (quantized block) is non-nil. The float64 arithmetic and its
// association order are identical on both paths — dst16 merely applies
// delay.Index16 to each voxel plane as it is produced — which keeps the
// quantized fill exact with respect to the float fill.
func (p *Provider) fillNappe(id int, dst []float64, dst16 delay.Block16) {
	l := p.Layout()
	nE := l.VoxelStride()
	// One scratch: the per-column (Sx−xD)² row, then on the quantized path
	// the voxel plane. Each voxel's receive √ arguments are written to its
	// output plane and evaluated in place (the float64 path uses dst itself).
	n := l.NX
	if dst16 != nil {
		n += nE
	}
	scratch := make([]float64, n)
	xt2, voxel := scratch[:l.NX], scratch[l.NX:]
	k := 0
	for it := 0; it < l.NTheta; it++ {
		for ip := 0; ip < l.NPhi; ip++ {
			s := p.focalSamples(it, ip, id)
			dx := s.X - p.originS.X
			dy := s.Y - p.originS.Y
			dz := s.Z - p.originS.Z
			argTx := dx*dx + dy*dy + dz*dz
			var tx float64
			if p.UseFixed {
				tx = p.FixedDP.Eval(argTx)
			} else {
				tx = p.Approx.Eval(argTx)
			}
			zz := s.Z * s.Z
			for ei := 0; ei < l.NX; ei++ {
				xt := s.X - p.elemX[ei]
				xt2[ei] = xt * xt
			}
			out := voxel
			if dst16 == nil {
				out = dst[k : k+nE]
			}
			j := 0
			for ej := 0; ej < l.NY; ej++ {
				yt := s.Y - p.elemY[ej]
				yt2 := yt * yt
				for ei := 0; ei < l.NX; ei++ {
					out[j] = xt2[ei] + yt2 + zz
					j++
				}
			}
			if p.UseFixed {
				p.FixedDP.EvalSlice(out, out)
			} else {
				p.Approx.EvalSlice(out, out)
			}
			if dst16 != nil {
				for i, rx := range out {
					dst16[k+i] = delay.Index16(tx + rx)
				}
			} else {
				for i := range out {
					out[i] = tx + out[i]
				}
			}
			k += nE
		}
	}
}
