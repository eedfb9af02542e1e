//go:build amd64 && !purego

// The fused TABLESTEER accumulate: the i16 bodies with their delay loads
// replaced by the Fig. 4 adder chain. On a steer cache miss the unfused route
// fills a whole int16 nappe block (steerRow: two adds and a rounding shift
// per delay) and the accumulate body's first instruction loads every delay
// back; here the indices are computed in the register that consumes them,
// from operands that stay in cache — ry (the depth's reference plus the φ's
// y words, (NPhi+1)·nE words built once per nappe and transmit by
// delay.SteerSource.SteerRows) and the tiled x table XT shared by every
// transmit. No delay is stored or loaded.
//
// Two bodies, chosen by the same CPUID probes as the i16 kernel's:
//
//   - tileMaddSteerAVX512 (hosts with AVX-512 F, DQ, BW and VL) is the i16
//     tile body with its delay-row loads replaced by computed rows: per
//     tile voxel and 16-element group one ry load, one XT add, the rounding
//     and a VPMOVDW pack into the layout the tile body's delay rows have,
//     then the same accept rule, windows, permutes and multiply-adds. A
//     tile it hands back runs voxel by voxel through the AVX2 body.
//   - gatherMaddSteerAVX2 (AVX2 hosts) is the i16 gather body with each
//     8-group's indices computed in the register that gathers with them.
//
// The golden twin is steerRow followed by accumulateNappe16I16Ref, and both
// bodies equal it bit for bit: the adds cannot overflow and the index cannot
// leave int16 (tablesteer.narrowProven, the only formats that offer
// operands), so idx is the int16 the fill would have stored and the tile
// body's pack is exact; a negative idx fails the tile body's unsigned accept
// test, and in the gather body reads as ≥ 2³¹ unsigned so that the VPMINUD
// clamp sends it to the guard slot exactly as the zero-extended negative
// int16 goes there. The session takes this route only where every
// condition of the unfused i16 body holds plus the operands exist, and only
// on non-resident nappes; purego builds, other GOARCHes and hosts without
// AVX2 fill blocks as before.
package beamform

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
)

// fusedSteer reports whether a fused steer body runs on this host.
func fusedSteer() bool { return cpufeat.AVX2 }

// steerKernelBody names the body a fused-eligible nappe runs on this host:
// "avx512" the tile body, "avx2" the gather body, "ref"
// fill-then-accumulate — exactly where i16KernelBody names the same body.
func steerKernelBody() string {
	switch {
	case !fusedSteer():
		return "ref"
	case cpufeat.AVX512:
		return "avx512"
	}
	return "avx2"
}

// gatherMaddSteerAVX2 is the fused gather body (kernel_steer_amd64.s): for
// each of len(acc) voxels v it sums, over elements d in [0, nVec),
// plane[ro[d] + min(uint32(idx), win)]·int16(wq[d]) >> sh into acc[v], where
// idx = (s + half + s>>31) >> frac and s = ry[v·nE + d] + xt[xoff[v] + d].
// It checks nothing: beyond gatherMaddI16AVX2's contract on plane, ro, wq,
// nE and nVec, the caller must hold len(ry) ≥ len(acc)·nE, len(xoff) ≥
// len(acc), 0 ≤ xoff[v] ≤ len(xt)−nVec for every v, and frac ≤ 31.
//
//go:noescape
func gatherMaddSteerAVX2(acc []int32, ry, xt, xoff []int32, plane []int16, ro []int32, wq []uint32, nE, nVec int, win, sh uint32, half int32, frac uint32)

// tileMaddSteerAVX512 is the fused tile body (kernel_steer_amd64.s):
// tileMaddI16AVX512 over the 16-voxel tiles of tiles, with voxel v's delay
// of element d computed as idx = (s + half + s>>31) >> frac, s =
// ry[ryOff + d] + xt[xOff + d], where offs holds, per tile, the sixteen
// voxels' ryOff then their xOff (steerTileOffsets). Like the i16 tile body
// it stops at the first tile some apodized element's window cannot serve —
// a negative idx included — and returns the tiles it finished. It checks
// nothing: beyond tileMaddI16AVX512's contract on row, plane, tiles, ro,
// wpair, grp, win and lastLen, the caller must hold len(offs) =
// 2·len(tiles), every ryOff + nE ≤ len(ry) and xOff + nE ≤ len(xt) with
// both ≥ 0, and frac ≤ 31.
//
//go:noescape
func tileMaddSteerAVX512(row []int32, ry, xt []int32, plane []int16, tiles, offs []int32, ro []int32, wpair []uint32, grp []uint16, win, sh uint32, lastLen uint16, half int32, frac uint32) int

// steerTileOffsets lays out the tile body's row offsets for operand set
// ops, once per session: per 16-voxel tile of the engine's walk, the
// sixteen voxels' ry row offsets φ·nE, then their XT row offsets XOff[v].
// The body then needs no gather and no division to find a row.
func (e *Engine) steerTileOffsets(ops *delay.SteerOperands) []int32 {
	nE, nPh := len(e.apod), e.Cfg.Vol.Phi.N
	offs := make([]int32, 2*len(e.tiles))
	for t := 0; t < len(e.tiles); t += 16 {
		o := offs[2*t:][:32]
		for i, v := range e.tiles[t : t+16] {
			o[i] = int32(int(v) % nPh * nE)
			o[16+i] = ops.XOff[v]
		}
	}
	return offs
}

// accumulateSteerI16 beamforms nappe id from fused steer operands: ry from
// SteerRows(id) and the route's shared ops, against one guarded int16
// plane, in store or add mode — the same contract as accumulateNappe16I16
// over the block FillNappe16 would have produced. With AVX-512 the tile
// body runs the nappe; otherwise the gather body runs one θ row of voxels
// per call (ry's rows are the φ axis). The float64 rescale is the i16
// wrapper's. It returns the tiles the tile body handed back, 0 on the AVX2
// route.
func (e *Engine) accumulateSteerI16(ry []int32, r *steerRoute, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, row []int32) (fallbacks int) {
	row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
	if cpufeat.AVX512 {
		fallbacks = e.tileSteerRowI16(ry, r, plane, tab, row)
	} else {
		for k := 0; k < len(row); k += e.Cfg.Vol.Phi.N {
			e.gatherSteerRowI16(ry, r.ops, plane, tab, row, k, k+e.Cfg.Vol.Phi.N)
		}
	}
	e.storeRowI16(row, id, out, scale, add)
	return fallbacks
}

// gatherSteerRowI16 sums voxels [k0, k1) of one θ row of the nappe into row
// through the AVX2 fused body and the scalar tail.
func (e *Engine) gatherSteerRowI16(ry []int32, ops *delay.SteerOperands, plane []int16, tab *i16Table, row []int32, k0, k1 int) {
	nE, nPh := len(e.apod), e.Cfg.Vol.Phi.N
	xt := ops.XT
	if !tab.gatherSafe(nE, plane) || ops.Frac > 31 || k0 < 0 || k1 > len(row) || k1 > len(ops.XOff) ||
		k0 >= k1 || k0/nPh != (k1-1)/nPh || len(ry) < (k1-1)%nPh*nE+nE {
		panic("beamform: fused steer operands violate the gather body's bounds contract")
	}
	xoff := ops.XOff[k0:k1]
	for _, o := range xoff {
		if o < 0 || int(o) > len(xt)-nE {
			panic("beamform: fused steer x offset outside the tiled table")
		}
	}
	half, frac := ops.Half, ops.Frac&31
	gatherMaddSteerAVX2(row[k0:k1], ry[k0%nPh*nE:], xt, xoff,
		plane, tab.ro, tab.wq, nE, tab.nVec, uint32(tab.win), uint32(e.preShift), half, frac)

	if tail := tab.els[tab.tail:]; len(tail) > 0 {
		uw := uint(tab.win)
		sh := e.preShift & 15
		for k := k0; k < k1; k++ {
			r := ry[k%nPh*nE:][:nE]
			x := xt[ops.XOff[k]:][:nE]
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
}

// tileSteerRowI16 fills row, one int32 per voxel of the nappe, through the
// fused tile body, and sends every tile the body hands back through
// gatherSteerRowI16 one voxel at a time. It returns the number of tiles
// that fell back.
func (e *Engine) tileSteerRowI16(ry []int32, r *steerRoute, plane []int16, tab *i16Table, row []int32) (fallbacks int) {
	nE, tiles, ops := len(e.apod), e.tiles, r.ops
	if len(tiles) == 0 {
		return 0
	}
	if !tab.tileSafe(nE, plane) || !tilesCover(tiles, len(row)) || ops.Frac > 31 ||
		!steerOffsetsSafe(r.offs, len(tiles), len(ry), len(ops.XT), nE) {
		panic("beamform: fused steer operands violate the tile body's bounds contract")
	}
	ro := tab.ro[:len(tab.grp)*16]
	for t := 0; t < len(tiles); {
		t += 16 * tileMaddSteerAVX512(row, ry, ops.XT, plane, tiles[t:], r.offs[2*t:], ro, tab.wpair, tab.grp,
			uint32(tab.win), uint32(e.preShift), tab.lastLen, ops.Half, ops.Frac)
		if t < len(tiles) {
			for _, v := range tiles[t : t+16] {
				e.gatherSteerRowI16(ry, ops, plane, tab, row, int(v), int(v)+1)
			}
			t += 16
			fallbacks++
		}
	}
	return fallbacks
}

// steerOffsetsSafe is the offset half of the fused tile body's bounds
// contract: two offsets per tile entry, and every row they name inside ry
// (ryLen words) or the tiled x table (xtLen words).
func steerOffsetsSafe(offs []int32, nTiles, ryLen, xtLen, nE int) bool {
	if len(offs) != 2*nTiles {
		return false
	}
	for t := 0; t < len(offs); t += 32 {
		for _, o := range offs[t : t+16] {
			if o < 0 || int(o) > ryLen-nE {
				return false
			}
		}
		for _, o := range offs[t+16 : t+32] {
			if o < 0 || int(o) > xtLen-nE {
				return false
			}
		}
	}
	return true
}
