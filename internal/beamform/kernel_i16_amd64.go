//go:build amd64 && !purego

package beamform

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/scan"
)

// i16KernelBody names the body accumulateNappe16I16 runs on this host:
// cpufeat.AVX2, probed once at init, is the one runtime decision the
// fixed-point kernel makes.
func i16KernelBody() string {
	if cpufeat.AVX2 {
		return "avx2"
	}
	return "ref"
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

// accumulateNappe16I16 is the native fixed-point kernel: the AVX2 gather
// body over the first tab.nVec elements, the scalar tail into the same int32
// per voxel — integer addition is associative, so the split changes no
// bit — then the reference's float64(acc)·scale in store or add mode. row
// is the calling worker's int32 scratch, one slot per voxel of a nappe.
// Hosts without AVX2 run the reference.
func (e *Engine) accumulateNappe16I16(blk delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, row []int32) {
	if !cpufeat.AVX2 {
		e.accumulateNappe16I16Ref(blk, plane, tab, id, out, scale, add)
		return
	}
	nE := len(e.apod)
	row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
	// The assembly is unchecked; these are its whole safety argument. ro is
	// ascending, so the last vector element bounds every gather's dword.
	// Negative delays zero-extend to ≥ 32768 and must clamp to the guard
	// slot, which needs win below that.
	if tab.win <= 0 || tab.win > delay.MaxEchoWindow ||
		len(blk) < len(row)*nE || len(tab.ro) != nE || len(tab.wq) != nE ||
		tab.nVec < 0 || tab.nVec > max(nE-1, 0) || tab.nVec%8 != 0 ||
		(tab.nVec > 0 && int(tab.ro[tab.nVec-1])+tab.win+2 > len(plane)) {
		panic("beamform: i16 kernel operands violate the gather body's bounds contract")
	}
	gatherMaddI16AVX2(row, blk, plane, tab.ro, tab.wq, nE, tab.nVec, uint32(tab.win), uint32(e.preShift))

	if tail := tab.els[tab.tail:]; len(tail) > 0 {
		uw := uint(tab.win)
		sh := e.preShift & 15
		for k := range row {
			voxel := blk[k*nE : (k+1)*nE]
			acc := row[k]
			for j := range tail {
				u := int(tail[j].ro) + int(min(uint(int(voxel[tail[j].idx])), uw))
				acc += int32(plane[u]) * tail[j].wq >> sh
			}
			row[k] = acc
		}
	}
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
