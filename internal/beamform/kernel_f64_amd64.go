//go:build amd64 && !purego

package beamform

import (
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// f64KernelBody names the body accumulateNappe16 runs on this build. SSE2
// and CMOV are amd64 baseline, so unlike the i16 kernel there is no probe:
// GOARCH and the purego tag decide alone.
func f64KernelBody() string { return "sse2" }

// f64Row is one active element's operands for the native body, in
// activeIdx order: its echo row (p nil and n 0 for an empty window), the
// byte offset of its delay within a voxel's row of the block, its weight.
// The assembly reads the fields by offset (0, 8, 16, 24; 32 B a row).
type f64Row struct {
	p   *float64
	n   int
	off int
	w   float64
}

// f64StackRows is the aperture up to which the operand table lives on the
// caller's stack (8 kB); the served specs have 144 and 256 elements.
const f64StackRows = 256

// sumRows8F64 is the native body (kernel_f64_amd64.s): for each group of
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

// accumulateNappe16 is the native float64 kernel. The reference walks one
// voxel at a time and every add waits for the one before it; this body
// keeps eight voxels' sums in flight at once. Each voxel's own sum is still
// the reference's sequence — active elements in activeIdx order, product
// rounded, then added — so the result is bitwise the reference's: the
// interleaving reorders work between voxels, never within one. The last
// voxels mod 8 of the nappe run that same sequence in Go.
func (e *Engine) accumulateNappe16(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) {
	nE := len(e.apod)
	nVox := e.Cfg.Vol.Theta.N * e.Cfg.Vol.Phi.N
	base := out.Vol.Linear(scan.Index{Depth: id}) // a nappe is contiguous: θ, then φ fastest
	dst := out.Data[base : base+nVox]
	if len(blk) < nVox*nE {
		panic("beamform: delay block shorter than the nappe it feeds")
	}
	var stack [f64StackRows]f64Row
	tab := stack[:0]
	if len(e.activeIdx) > len(stack) {
		tab = make([]f64Row, 0, len(e.activeIdx))
	}
	for j, d := range e.activeIdx { // d < nE by construction, so off < 2·nE
		r := f64Row{off: 2 * int(d), w: e.activeW[j]}
		if s := bufs[d].Samples; len(s) > 0 {
			r.p, r.n = &s[0], len(s)
		}
		tab = append(tab, r)
	}
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
