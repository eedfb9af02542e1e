//go:build amd64 && !purego

// The fused TABLESTEER accumulate: the i16 gather body with its delay load
// replaced by the Fig. 4 adder chain. On a steer cache miss the unfused route
// fills a whole int16 nappe block (steerRow: two adds and a rounding shift
// per delay) and the gather body's first instruction loads every delay back;
// here each 8-group computes its indices in the register that gathers with
// them, from operands that stay in cache — ry (the depth's reference plus
// the φ's y words, (NPhi+1)·nE words built once per nappe and transmit by
// delay.SteerSource.SteerRows) and the tiled x table XT shared by every
// transmit. No delay is stored or loaded.
//
// The golden twin is steerRow followed by accumulateNappe16I16Ref, and the
// body equals it bit for bit: the adds cannot overflow and the index cannot
// leave int16 (tablesteer.narrowProven, the only formats that offer
// operands), so idx is the int16 the fill would have stored; a negative idx
// reads as ≥ 2³¹ unsigned and the VPMINUD clamp sends it to the guard slot
// exactly as the zero-extended negative int16 goes there. The session takes
// this route only where every condition of the unfused i16 body holds plus
// the operands exist, and only on non-resident nappes; purego builds, other
// GOARCHes and hosts without AVX2 fill blocks as before.
package beamform

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
)

// fusedSteer reports whether the fused steer body runs on this host.
func fusedSteer() bool { return cpufeat.AVX2 }

// steerKernelBody names the body a fused-eligible nappe runs on this host:
// "avx2" the fused body, "ref" fill-then-accumulate.
func steerKernelBody() string {
	if fusedSteer() {
		return "avx2"
	}
	return "ref"
}

// gatherMaddSteerAVX2 is the fused vector body (kernel_steer_amd64.s): for
// each of len(acc) voxels v it sums, over elements d in [0, nVec),
// plane[ro[d] + min(uint32(idx), win)]·int16(wq[d]) >> sh into acc[v], where
// idx = (s + half + s>>31) >> frac and s = ry[v·nE + d] + xt[xoff[v] + d].
// It checks nothing: beyond gatherMaddI16AVX2's contract on plane, ro, wq,
// nE and nVec, the caller must hold len(ry) ≥ len(acc)·nE, len(xoff) ≥
// len(acc), 0 ≤ xoff[v] ≤ len(xt)−nVec for every v, and frac ≤ 31.
//
//go:noescape
func gatherMaddSteerAVX2(acc []int32, ry, xt, xoff []int32, plane []int16, ro []int32, wq []uint32, nE, nVec int, win, sh uint32, half int32, frac uint32)

// accumulateSteerI16 beamforms nappe id from fused steer operands: ry from
// SteerRows(id) and the shared ops, against one guarded int16 plane, in
// store or add mode — the same contract as accumulateNappe16I16 over the
// block FillNappe16 would have produced. The vector body runs one θ row of
// voxels per call (ry's rows are the φ axis); the scalar tail and the
// float64 rescale are the i16 wrapper's.
func (e *Engine) accumulateSteerI16(ry []int32, ops *delay.SteerOperands, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, row []int32) {
	nE := len(e.apod)
	nTh, nPh := e.Cfg.Vol.Theta.N, e.Cfg.Vol.Phi.N
	row = row[:nTh*nPh]
	xt, xoff := ops.XT, ops.XOff[:len(row)]
	if !tab.gatherSafe(nE, plane) || len(ry) < nPh*nE || ops.Frac > 31 {
		panic("beamform: fused steer operands violate the gather body's bounds contract")
	}
	for _, o := range xoff {
		if o < 0 || int(o) > len(xt)-nE {
			panic("beamform: fused steer x offset outside the tiled table")
		}
	}
	half, frac := ops.Half, ops.Frac&31
	for it := 0; it < nTh; it++ {
		gatherMaddSteerAVX2(row[it*nPh:(it+1)*nPh], ry, xt, xoff[it*nPh:(it+1)*nPh],
			plane, tab.ro, tab.wq, nE, tab.nVec, uint32(tab.win), uint32(e.preShift), half, frac)
	}

	if tail := tab.els[tab.tail:]; len(tail) > 0 {
		uw := uint(tab.win)
		sh := e.preShift & 15
		for k := range row {
			r := ry[k%nPh*nE:][:nE]
			x := xt[xoff[k]:][:nE]
			acc := row[k]
			for j := range tail {
				v := r[tail[j].idx] + x[tail[j].idx]
				idx := (v + half + v>>31) >> frac
				u := int(tail[j].ro) + int(min(uint(int(idx)), uw))
				acc += int32(plane[u]) * tail[j].wq >> sh
			}
			row[k] = acc
		}
	}
	e.storeRowI16(row, id, out, scale, add)
}
