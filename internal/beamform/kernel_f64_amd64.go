//go:build amd64 && !purego

package beamform

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// f64KernelBody names the body that runs a resident float64 nappe on this
// host: cpufeat.AVX512, probed once at init, picks the tile-native body,
// and every other host runs the eight-chain SSE2 body (SSE2 and CMOV are
// amd64 baseline), which runs every filled nappe on any amd64 host.
func f64KernelBody() string {
	if cpufeat.AVX512 {
		return "avx512-native"
	}
	return "sse2"
}

// f64Row is one active element's operands for the native bodies, in
// activeIdx order: its echo row (p nil and n 0 for an empty window), the
// byte offset of its delay within a voxel's row of the block, its weight.
// The assembly reads the fields by offset (0, 8, 16, 24; 32 B a row).
type f64Row struct {
	p   *float64
	n   int
	off int
	w   float64
}

// f64StackRows is the aperture up to which the operand tables live on the
// caller's stack (8.5 kB); the served specs have 144 and 256 elements.
const f64StackRows = 256

// sumRows8F64 is the SSE2 body (kernel_f64_amd64.s): for each group of
// eight voxels of dst, whose delay rows sit nE int16s apart in blk, it runs
// eight independent acc += w·sample chains over tab in order — a separate
// MULSD and ADDSD per sample, never fused — where sample is the element's
// echo at the voxel's delay, or +0 when the delay is negative or ≥ n
// (selected by CMOV, so no out-of-window address is ever dereferenced), and
// stores the sums (add false) or adds them to dst. Each element step also
// prefetches one line of the delay rows after the group's (a hint: it may
// name addresses past blk's end and cannot fault). It checks nothing: the
// caller must hold len(dst) a multiple of 8, len(blk) ≥ len(dst)·nE and
// 0 ≤ off < 2·nE, off even, for every row.
//
//go:noescape
func sumRows8F64(dst []float64, blk []int16, tab []f64Row, nE int, add bool)

// tileMaddF64NativeAVX512 is the tile-native body (kernel_f64_amd64.s): it
// walks the 16-voxel tiles of tiles in order, reading the
// delaycache.Native records recs, one per tile and group, and sums
// w·sample over the apodized elements — grp's bits, each taking the next
// row of tab — in element order into one chain per voxel, a separate
// VMULPD and VADDPD per step, then stores the sums to dst (add false) or
// adds them. Per apodized element it takes the samples from the tile's
// window when the tile's delays span at most 15 and the largest is below
// lens[d] (unsigned). Otherwise it applies the per-half rule to each
// 8-voxel half: the half's own window when its delays span at most 15 and
// the largest is below lens[d], else a VGATHERQPD masked to the delays
// below lens[d], the rest +0. It returns the number of element-halves that
// gathered. It checks nothing: the caller must hold f64TileSafe for the
// tables, len(recs) ≥ len(tiles)/16·len(grp) records, every tile index
// v < len(dst), and no raw group (delaycache.Native.Spilled) among the
// apodized groups of tiles.
//
//go:noescape
func tileMaddF64NativeAVX512(dst []float64, recs []byte, tiles []int32, tab []f64Row, grp []uint16, lens []uint16, add bool) (gathered int)

// accumulateNappe16 is the native float64 kernel over a filled block. The
// reference walks one voxel at a time and every add waits for the one
// before it; the native bodies keep many voxels' sums in flight at once —
// the SSE2 body here eight, the tile-native body (accumulateNativeF64)
// sixteen. Each voxel's own sum is still the reference's sequence — active
// elements in activeIdx order, product rounded, then added — so the result
// is bitwise the reference's: the interleaving reorders work between
// voxels, never within one. The SSE2 body covers the first ⌊voxels/8⌋·8
// voxels; the last voxels mod 8 run the reference's sequence in Go.
func (e *Engine) accumulateNappe16(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) {
	nE := len(e.apod)
	nVox := e.Cfg.Vol.Theta.N * e.Cfg.Vol.Phi.N
	base := out.Vol.Linear(scan.Index{Depth: id}) // a nappe is contiguous: θ, then φ fastest
	dst := out.Data[base : base+nVox]
	if len(blk) < nVox*nE {
		panic("beamform: delay block shorter than the nappe it feeds")
	}
	var stack [f64StackRows]f64Row
	tab := e.f64Rows(stack[:0], bufs)
	n8 := nVox &^ 7
	sumRows8F64(dst[:n8], blk, tab, nE, add)
	for v := n8; v < nVox; v++ {
		voxel := blk[v*nE : (v+1)*nE]
		acc := 0.0
		for j, d := range e.activeIdx {
			acc += e.activeW[j] * bufs[d].At(int(voxel[d]))
		}
		if add {
			dst[v] += acc
		} else {
			dst[v] = acc
		}
	}
}

// f64Rows appends the native bodies' operand rows for bufs to tab, one per
// active element in activeIdx order (d < nE by construction, so off < 2·nE).
func (e *Engine) f64Rows(tab []f64Row, bufs []rf.EchoBuffer) []f64Row {
	if len(e.activeIdx) > cap(tab) {
		tab = make([]f64Row, 0, len(e.activeIdx))
	}
	for j, d := range e.activeIdx {
		r := f64Row{off: 2 * int(d), w: e.activeW[j]}
		if s := bufs[d].Samples; len(s) > 0 {
			r.p, r.n = &s[0], len(s)
		}
		tab = append(tab, r)
	}
	return tab
}

// f64Groups builds the tile-native body's group tables for tab — per 16-element
// group its apodization bits, per element its row length as the unsigned
// accept bound — in grp and lens when they are long enough.
func (e *Engine) f64Groups(tab []f64Row, grp, lens []uint16) ([]uint16, []uint16) {
	nG := (len(e.apod) + 15) / 16
	if nG > len(grp) || 16*nG > len(lens) {
		grp, lens = make([]uint16, nG), make([]uint16, 16*nG)
	}
	grp, lens = grp[:nG], lens[:16*nG]
	for j, d := range e.activeIdx {
		grp[d/16] |= 1 << (d % 16)
		// An int16 delay is at most 32767, so a longer row accepts every
		// non-negative one; 32768 as a word keeps every negative one out.
		lens[d] = uint16(min(tab[j].n, 1<<15))
	}
	return grp, lens
}

// accumulateNativeF64 is the float64 kernel over a resident block in the
// tile-native form. With AVX-512 the tile-native body runs every tile but
// those holding a raw group under the apodization, which handBackF64 runs
// from the tile's expanded delays; it returns the element-halves the body
// gathered. A block the store kept unconverted runs through
// accumulateNappe16 as it is; otherwise the block is expanded into scratch,
// a worker's block buffer, and accumulateNappe16 runs on it. Both return 0.
func (e *Engine) accumulateNativeF64(nat *delaycache.Native, scratch delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) (gathered int) {
	nE := len(e.apod)
	if nat.Raw != nil {
		e.accumulateNappe16(nat.Raw, bufs, id, out, add)
		return 0
	}
	if !cpufeat.AVX512 || nE == 0 {
		nat.Expand(scratch)
		e.accumulateNappe16(scratch, bufs, id, out, add)
		return 0
	}
	nVox := e.Cfg.Vol.Theta.N * e.Cfg.Vol.Phi.N
	base := out.Vol.Linear(scan.Index{Depth: id})
	dst := out.Data[base : base+nVox]
	var stack [f64StackRows]f64Row
	tab := e.f64Rows(stack[:0], bufs)
	var grpStack [f64StackRows / 16]uint16
	var lensStack [f64StackRows]uint16
	grp, lens := e.f64Groups(tab, grpStack[:], lensStack[:])
	if !f64TileSafe(dst, e.tiles, tab, grp, lens, nE) || !e.nativeCovers(nat) || len(scratch) < 16*nE {
		panic("beamform: f64 kernel operands violate the tile-native body's bounds contract")
	}
	nT, rec := len(e.tiles)/16, len(grp)*delaycache.NativeRecordBytes
	for t := 0; t < nT; {
		end := nat.NextRawTile(t, grp)
		if end > t {
			gathered += tileMaddF64NativeAVX512(dst, nat.Recs[t*rec:], e.tiles[16*t:16*end], tab, grp, lens, add)
		}
		if end < nT {
			e.handBackF64(nat, end, scratch, bufs, dst, add)
		}
		t = end + 1
	}
	return gathered
}

// f64TileSafe is the tile-native body's bounds contract on everything but
// the delays — the assembly is unchecked, so this and nativeCovers are its
// whole safety argument. The tile list covers the nappe (tilesCover), so
// every store is inside dst. The group tables span whole groups with no
// bit past the aperture, and each apodized element consumes the next row
// of tab in order, which must be exactly used up. Its window loads and
// gathers stay below lens[d], which must not exceed its row's length.
func f64TileSafe(dst []float64, tiles []int32, tab []f64Row, grp, lens []uint16, nE int) bool {
	nG := (nE + 15) / 16
	if nE <= 0 || !tilesCover(tiles, len(dst)) ||
		len(grp) != nG || len(lens) != 16*nG || grp[nG-1]&^lastLen(nE) != 0 {
		return false
	}
	j := 0
	for d := range lens {
		if grp[d/16]&(1<<(d%16)) == 0 {
			continue
		}
		if j == len(tab) || int(lens[d]) > tab[j].n || tab[j].n > 0 && tab[j].p == nil {
			return false
		}
		j++
	}
	return j == len(tab)
}
