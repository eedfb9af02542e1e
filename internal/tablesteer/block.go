package tablesteer

import (
	"math"

	"ultrabeam/internal/delay"
)

// Layout implements delay.BlockProvider.
func (p *Provider) Layout() delay.Layout {
	return delay.Layout{
		NTheta: p.Cfg.Vol.Theta.N, NPhi: p.Cfg.Vol.Phi.N,
		NX: p.Cfg.Arr.NX, NY: p.Cfg.Arr.NY,
	}
}

// FillNappe16 implements delay.BlockProvider, mirroring the Fig. 4 datapath
// at block granularity: the folded reference slice of depth nappe id is
// unfolded to the full aperture exactly once per nappe (the slice the DRAM
// streamer keeps on chip, §V-B) and then every steering direction is
// produced by broadcast-adding the separable corrections — the x table row
// for (θ, φ) across element columns and the y table word for φ across
// element rows — with the rounding to an echo-buffer index fused into the
// row. Per delay that leaves two additions and a rounding, against two
// table folds and three indexed lookups on the scalar path. The float path
// keeps the (ref + x) + y association. The fixed datapath with formats that
// prove it (narrowProven: every shipped pair) runs steerRow — int32 adds
// and one rounding shift, no float; any other pair adds in int64 words
// pre-aligned to the common binary point with the same shifts as
// alignedSum and clamps through delay.Index16. Every slot equals
// Index16(DelaySamples(…)).
func (p *Provider) FillNappe16(id int, dst delay.Block16) {
	l, c := p.Layout(), p.Corr
	switch {
	case !p.UseFixed:
		var stack [stackElems]float64
		ref := unfold(stack[:], p.Ref.vals, id, l)
		c.eachRow(func(k, r, x, y int) {
			indexRow(dst[k:k+l.NX], ref[r:r+l.NX], c.xvals[x:x+l.NX], c.yvals[y])
		})
	case p.narrow != nil:
		o := p.narrow
		// half is hoisted out of steerRow: forming it per row costs 6–12 %.
		half, frac := int32(1)<<(o.frac-1), uint(o.frac)
		var stack [stackElems]int32
		ref := unfold(stack[:], o.ref, id, l)
		c.eachRow(func(k, r, x, y int) {
			steerRow(dst[k:k+l.NX], ref[r:r+l.NX], o.x[x:x+l.NX], o.y[y], half, frac)
		})
	default:
		o := p.wide
		scale := math.Ldexp(1, -o.frac)
		var stack [stackElems]int64
		ref := unfold(stack[:], o.ref, id, l)
		c.eachRow(func(k, r, x, y int) {
			clampedRow(dst[k:k+l.NX], ref[r:r+l.NX], o.x[x:x+l.NX], o.y[y], scale)
		})
	}
}

// stackElems is the largest aperture whose unfolded reference slice lives
// on the fill's stack; a larger one costs one allocation per nappe.
const stackElems = 256

// unfold expands nappe id of a folded [depth][qy][qx] reference table to
// full-aperture [row][column] order, into stack when the aperture fits it.
func unfold[T any](stack, table []T, id int, l delay.Layout) []T {
	qx, qy := foldedDim(l.NX), foldedDim(l.NY)
	ref := stack
	if l.VoxelStride() > len(stack) {
		ref = make([]T, l.VoxelStride())
	}
	for ej := 0; ej < l.NY; ej++ {
		folded := table[(id*qy+foldIndex(ej, l.NY))*qx:][:qx]
		row := ref[ej*l.NX:][:l.NX]
		for ei := range row {
			row[ei] = folded[foldIndex(ei, l.NX)]
		}
	}
	return ref[:l.VoxelStride()]
}

// eachRow is the one staging walk every fill shares. In block order — θ, φ,
// element row — it hands visit the offsets of one element row's operands:
// its NX outputs in the block (k), its reference words in the unfolded slice
// (r), its steering direction's x corrections (x) and its y correction (y)
// in the tables' storage order.
func (c *CorrTables) eachRow(visit func(k, r, x, y int)) {
	k := 0
	for it := 0; it < c.NTheta; it++ {
		for ip := 0; ip < c.NPhi; ip++ {
			x := c.xRow(it, ip)
			for ej := 0; ej < c.NY; ej++ {
				visit(k, ej*c.NX, x, ip*c.NY+ej)
				k += c.NX
			}
		}
	}
}

// steerRow is the Fig. 4 adder chain for one element row: two int32
// additions per delay on operands already at the common binary point, then
// the rounding adder as one biased arithmetic shift — v>>31 is −1 for
// negative v, and ⌊(v + half − 1)/2ⁿ⌋ = −⌊(−v + half)/2ⁿ⌋ there, so ties
// round away from zero exactly as math.Round does on the float the sum
// stands for. narrowProven rules out int32 overflow and int16 saturation.
func steerRow(row []int16, ref, x []int32, y, half int32, frac uint) {
	row, x = row[:len(ref)], x[:len(ref)]
	for ei, r := range ref {
		v := r + x[ei] + y
		row[ei] = int16((v + half + v>>31) >> (frac & 31))
	}
}

// clampedRow is the unproven-format row: int64 adds, then the spec's own
// scale, round and int16 saturation.
func clampedRow(row []int16, ref, x []int64, y int64, scale float64) {
	row, x = row[:len(ref)], x[:len(ref)]
	for ei, r := range ref {
		row[ei] = delay.Index16(float64(r+x[ei]+y) * scale)
	}
}

func indexRow(row []int16, ref, x []float64, y float64) {
	row, x = row[:len(ref)], x[:len(ref)]
	for ei, r := range ref {
		row[ei] = delay.Index16(r + x[ei] + y)
	}
}
