package tablesteer

import "ultrabeam/internal/delay"

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
// row. Per delay that leaves two int32 additions and one rounding shift,
// against two table folds and three indexed lookups on the scalar path.
// That is one route: the fixed datapath with formats that prove it
// (narrowProven: every shipped pair) through steerRow. The float datapath
// and an unproven pair fill through the scalar law (delay.ScalarAdapter).
// Every slot equals Index16(DelaySamples(…)).
func (p *Provider) FillNappe16(id int, dst delay.Block16) {
	l, o := p.Layout(), p.narrow
	if !p.UseFixed || o == nil {
		(&delay.ScalarAdapter{P: p, L: l}).FillNappe16(id, dst)
		return
	}
	// half is hoisted out of steerRow: forming it per row costs 6–12 %.
	half, frac := int32(1)<<(o.frac-1), uint(o.frac)
	var stack [stackElems]int32
	ref := unfold(stack[:], o.ref, id, l)
	p.Corr.eachRow(func(k, r, x, y int) {
		steerRow(dst[k:k+l.NX], ref[r:r+l.NX], o.x[x:x+l.NX], o.y[y], half, frac)
	})
}

// stackElems is the largest aperture whose unfolded reference slice lives
// on the fill's stack; a larger one costs one allocation per nappe.
const stackElems = 256

// unfold expands nappe id of a folded [depth][qy][qx] reference table to
// full-aperture [row][column] order, into stack when the aperture fits it.
func unfold(stack, table []int32, id int, l delay.Layout) []int32 {
	qx, qy := foldedDim(l.NX), foldedDim(l.NY)
	ref := stack
	if l.VoxelStride() > len(stack) {
		ref = make([]int32, l.VoxelStride())
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

// eachRow is the fill's staging walk. In block order — θ, φ, element row —
// it hands visit the offsets of one element row's operands: its NX outputs
// in the block (k), its reference words in the unfolded slice (r), its
// steering direction's x corrections (x) and its y correction (y) in the
// tables' storage order.
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
