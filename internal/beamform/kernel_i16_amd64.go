//go:build amd64 && !purego

package beamform

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/scan"
)

// i16KernelBody names the body accumulateNappe16I16 runs on this host:
// cpufeat.AVX512 and cpufeat.AVX2, probed once at init, are the only
// runtime decisions the fixed-point kernel makes.
func i16KernelBody() string {
	switch {
	case !cpufeat.AVX2:
		return "ref"
	case cpufeat.AVX512:
		return "avx512"
	}
	return "avx2"
}

// gatherMaddI16AVX2 is the vector body (kernel_i16_amd64.s): for each of
// len(acc) voxels, whose delay rows sit nE apart in blk, it sums
// plane[ro[d]+min(uint16(delay[d]), win)]·int16(wq[d]) >> sh over elements
// d in [0, nVec) into acc. It checks nothing: every gather reads the dword
// at its sample, so the caller must hold ro[d]+win+2 ≤ len(plane) for
// every d < nVec, nVec a multiple of 8 and ≤ nE, len(blk) ≥ len(acc)·nE,
// len(ro) and len(wq) ≥ nVec, and the high half of every wq dword zero.
//
//go:noescape
func gatherMaddI16AVX2(acc []int32, blk []int16, plane []int16, ro []int32, wq []uint32, nE, nVec int, win, sh uint32)

// tileMaddI16AVX512 is the tile body (kernel_i16_amd64.s): it walks the
// 16-voxel tiles of tiles in order and, for each, sums
// plane[ro[d]+delay[d]]·int16(wq[d]) >> sh over the apodized elements d into
// row[v] for each of the tile's voxels v, whose delay rows sit nE apart in
// blk. grp, lastLen and wpair are the table's group masks and pair weights.
// It stops at the first tile whose delays some apodized element's window
// cannot serve — a span above 63 samples, or an index above win (a negative
// one reads as ≥ 32768) — and returns the number of tiles it finished, that
// tile's voxels untouched. It checks nothing: the caller must hold
// len(tiles) a multiple of 16, every tile index v < len(row) with
// len(blk) ≥ len(row)·nE, len(grp) = ⌈nE/16⌉ with no bit at or past nE,
// len(ro) = 16·len(grp), len(wpair) = 128·len(grp),
// ro[d]+win+1 ≤ len(plane) for every apodized d, and win ≤ 32767.
//
//go:noescape
func tileMaddI16AVX512(row []int32, blk []int16, plane []int16, tiles []int32, ro []int32, wpair []uint32, grp []uint16, nE int, win, sh uint32, lastLen uint16) int

// tileMaddI16NativeAVX512 is tileMaddI16AVX512 over the delaycache.Native
// records recs of the tiles in tiles, one record per tile and group, read
// in order: each group's mins, spans and pair-ordered offsets are loaded,
// not computed. It hands back the same tiles by the same rule and returns
// the number it finished. It checks nothing: the caller must hold
// tileSafe, len(recs) ≥ len(tiles)/16·len(grp) records, every tile index
// below len(row), and no raw group (delaycache.Native.Spilled) among the
// apodized groups of tiles.
//
//go:noescape
func tileMaddI16NativeAVX512(row []int32, recs []byte, plane []int16, tiles []int32, ro []int32, wpair []uint32, grp []uint16, win, sh uint32) int

// accumulateNativeI16 is accumulateNappe16I16 over a resident block in the
// tile-native form. With AVX-512 the tile-native body fills the row, and a
// tile it hands back — or one holding a raw group under the apodization —
// runs from its expanded delays through the AVX2 route (handBackI16); it
// returns those tiles. A block the store kept unconverted runs through
// accumulateNappe16I16 as it is; otherwise the block is expanded into
// scratch, a worker's block buffer, and accumulateNappe16I16 runs on it.
func (e *Engine) accumulateNativeI16(nat *delaycache.Native, scratch delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, row []int32) (fallbacks int) {
	if nat.Raw != nil {
		return e.accumulateNappe16I16(nat.Raw, plane, tab, id, out, scale, add, row)
	}
	if !cpufeat.AVX512 {
		nat.Expand(scratch)
		return e.accumulateNappe16I16(scratch, plane, tab, id, out, scale, add, row)
	}
	row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
	nE, tiles := len(e.apod), e.tiles
	if !tab.tileSafe(nE, plane) || !tilesCover(tiles, len(row)) || !e.nativeCovers(nat) || len(scratch) < 16*nE {
		panic("beamform: i16 kernel operands violate the tile-native body's bounds contract")
	}
	nT, rec := len(tiles)/16, len(tab.grp)*delaycache.NativeRecordBytes
	ro := tab.ro[:len(tab.grp)*16]
	for t := 0; t < nT; {
		end := nat.NextRawTile(t, tab.grp)
		for t < end {
			t += tileMaddI16NativeAVX512(row, nat.Recs[t*rec:], plane, tiles[16*t:16*end], ro, tab.wpair, tab.grp,
				uint32(tab.win), uint32(e.preShift))
			if t < end {
				e.handBackI16(nat, t, scratch, plane, tab, row)
				t++
				fallbacks++
			}
		}
		if end < nT {
			e.handBackI16(nat, end, scratch, plane, tab, row)
			fallbacks++
		}
		t = end + 1
	}
	e.storeRowI16(row, id, out, scale, add)
	return fallbacks
}

// handBackI16 sums tile i of a tile-native block into row from its
// expanded delays (scratch holds at least 16·nE) through gatherRowI16.
func (e *Engine) handBackI16(nat *delaycache.Native, i int, scratch []int16, plane []int16, tab *i16Table, row []int32) {
	nat.ExpandTile(i, scratch)
	var acc [16]int32
	e.gatherRowI16(scratch, plane, tab, acc[:], 0, 16)
	for s, v := range e.tiles[16*i : 16*i+16] {
		row[v] = acc[s]
	}
}

// accumulateNappe16I16 is the native fixed-point kernel. With AVX-512 the
// tile body sums every apodized element into the worker's int32 row, one
// slot per voxel of the nappe, and a tile it hands back runs voxel by voxel
// through the AVX2 route. Without AVX-512 the AVX2 route runs every voxel:
// the gather body over the first tab.nVec elements, then the scalar tail
// into the same int32 — integer addition is associative, so no split
// changes a bit. The reference's float64(acc)·scale follows in store or add
// mode. Hosts without AVX2 run the reference. It returns the tiles the tile
// body handed back, 0 on the other routes.
func (e *Engine) accumulateNappe16I16(blk delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, row []int32) (fallbacks int) {
	if !cpufeat.AVX2 {
		e.accumulateNappe16I16Ref(blk, plane, tab, id, out, scale, add)
		return 0
	}
	row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
	if cpufeat.AVX512 {
		fallbacks = e.tileRowI16(blk, plane, tab, row)
	} else {
		e.gatherRowI16(blk, plane, tab, row, 0, len(row))
	}
	e.storeRowI16(row, id, out, scale, add)
	return fallbacks
}

// gatherRowI16 sums voxels [k0, k1) of the nappe into row through the AVX2
// gather body and the scalar tail.
func (e *Engine) gatherRowI16(blk delay.Block16, plane []int16, tab *i16Table, row []int32, k0, k1 int) {
	nE := len(e.apod)
	if !tab.gatherSafe(nE, plane) || k0 < 0 || k1 > len(row) || len(blk) < k1*nE {
		panic("beamform: i16 kernel operands violate the gather body's bounds contract")
	}
	gatherMaddI16AVX2(row[k0:k1], blk[k0*nE:], plane, tab.ro, tab.wq, nE, tab.nVec, uint32(tab.win), uint32(e.preShift))

	if tail := tab.els[tab.tail:]; len(tail) > 0 {
		uw := uint(tab.win)
		sh := e.preShift & 15
		for k := k0; k < k1; k++ {
			voxel := blk[k*nE : (k+1)*nE]
			acc := row[k]
			for j := range tail {
				u := int(tail[j].ro) + int(min(uint(int(voxel[tail[j].idx])), uw))
				acc += int32(plane[u]) * tail[j].wq >> sh
			}
			row[k] = acc
		}
	}
}

// tileRowI16 fills row, one int32 per voxel of the nappe, through the tile
// body, and sends every tile the body hands back through gatherRowI16 one
// voxel at a time. It returns the number of tiles that fell back.
func (e *Engine) tileRowI16(blk delay.Block16, plane []int16, tab *i16Table, row []int32) (fallbacks int) {
	nE, tiles := len(e.apod), e.tiles
	if len(tiles) == 0 {
		return 0
	}
	if !tab.tileSafe(nE, plane) || !tilesCover(tiles, len(row)) || len(blk) < len(row)*nE {
		panic("beamform: i16 kernel operands violate the tile body's bounds contract")
	}
	ro := tab.ro[:len(tab.grp)*16]
	for t := 0; t < len(tiles); {
		t += 16 * tileMaddI16AVX512(row, blk, plane, tiles[t:], ro, tab.wpair, tab.grp, nE,
			uint32(tab.win), uint32(e.preShift), tab.lastLen)
		if t < len(tiles) {
			for _, v := range tiles[t : t+16] {
				e.gatherRowI16(blk, plane, tab, row, int(v), int(v)+1)
			}
			t += 16
			fallbacks++
		}
	}
	return fallbacks
}

// tilesCover is the tile-list half of every tile body's bounds contract,
// the front end they share (kernel_tile_amd64.h): the list covers an
// n-voxel nappe in whole tiles and ends on its last voxel, its largest
// index (delay.Layout.SnakeTiles), so every store is inside the nappe's n
// outputs and, with a block of n·nE delays, every delay row inside the
// block.
func tilesCover(tiles []int32, n int) bool {
	return n > 0 && len(tiles) == (n+15)&^15 && int(tiles[len(tiles)-1]) == n-1
}

// gatherSafe is the operand half of the AVX2 body's bounds contract —
// the assembly is unchecked, so this is its whole safety argument for the
// table and the plane. ro is ascending, so the last vector element bounds
// every gather's dword. Negative indices read as ≥ 32768 unsigned and must
// clamp to the guard slot, which needs win below that.
func (t *i16Table) gatherSafe(nE int, plane []int16) bool {
	return t.win > 0 && t.win <= delay.MaxEchoWindow &&
		len(t.ro) == nE && len(t.wq) == nE &&
		t.nVec >= 0 && t.nVec <= max(nE-1, 0) && t.nVec%8 == 0 &&
		(t.nVec == 0 || int(t.ro[t.nVec-1])+t.win+2 <= len(plane))
}

// tileSafe is the same half of the tile body's contract. Its window loads
// stop at the guard slot, so the last element's row must fit the plane; the
// tables must span whole groups; and the unsigned word compare against win
// must see every negative index as out of range.
func (t *i16Table) tileSafe(nE int, plane []int16) bool {
	nG := (nE + 15) / 16
	return t.win > 0 && t.win <= delay.MaxEchoWindow &&
		len(t.ro) == nE && cap(t.ro) >= nG*16 && len(t.grp) == nG && len(t.wpair) == nG*128 &&
		(nE == 0 || int(t.ro[nE-1])+t.win+1 <= len(plane))
}

// storeRowI16 is the reference's float64(acc)·scale per voxel of nappe id,
// stored or added.
func (e *Engine) storeRowI16(row []int32, id int, out *Volume, scale float64, add bool) {
	base := out.Vol.Linear(scan.Index{Depth: id}) // a nappe is contiguous: θ, then φ fastest
	dst := out.Data[base : base+len(row)]
	for k, acc := range row {
		v := float64(acc) * scale // rounded before the add, as in the reference
		if add {
			dst[k] += v
		} else {
			dst[k] = v
		}
	}
}
