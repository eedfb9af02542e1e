// Accumulate kernels over narrow delay blocks. accumulateNappe (beamform.go)
// is the float64-block kernel the wide datapath keeps; the kernels here
// consume delay.Block16 selection indices — the representation the paper's
// hardware moves (14-bit words, §V-B) — against float64 echo buffers
// (bit-identical golden model) or a flattened float32 echo plane (the
// narrow kernel, unrolled and branchless).
package beamform

import (
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// accumulateNappe16Ref sums Eq. 1 for one depth slice from a quantized nappe
// block at float64 echo precision. The element iteration, weights and
// accumulation order are exactly accumulateNappe's, and for echo windows
// within delay.MaxEchoWindow every int16 index selects the same sample the
// float64 delay would have — so this kernel is bit-identical to the scalar
// reference while reading a quarter of the delay bytes.
//
// This body is the golden reference of the float64 kernel: the purego and
// non-amd64 builds' accumulateNappe16 is exactly this (kernel_f64_generic.go),
// and the native body (kernel_f64_amd64.go) is property-tested bitwise equal
// to it.
func (e *Engine) accumulateNappe16Ref(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) {
	nE := len(e.apod)
	k := 0
	for it := 0; it < e.Cfg.Vol.Theta.N; it++ {
		base := out.Vol.Linear(scan.Index{Theta: it, Phi: 0, Depth: id})
		for ip := 0; ip < e.Cfg.Vol.Phi.N; ip++ {
			voxel := blk[k : k+nE]
			acc := 0.0
			w := e.activeW[:len(e.activeIdx)] // hoists the bounds check
			for j, d := range e.activeIdx {
				acc += w[j] * bufs[d].At(int(voxel[d]))
			}
			if add {
				out.Data[base+ip] += acc
			} else {
				out.Data[base+ip] = acc
			}
			k += nE
		}
	}
}

// accumulateNappe16Narrow is the narrow-datapath kernel: int16 delays
// against a flattened float32 echo plane (one guarded row of win+1 samples
// per element, built by the session's convert phase), with float32
// accumulation.
//
// Three structural changes buy its speed over the wide kernels:
//
//   - Branchless out-of-window masking. EchoBuffer.At pays a data-dependent
//     bounds branch per sample; here every index is clamped into the guard
//     slot (row position win, permanently zero) with a single unsigned
//     compare the compiler lowers to CMOV — negative indices wrap to huge
//     unsigned values and clamp the same way, so out-of-window reads cost
//     exactly an in-window read of silence.
//   - Precomputed row addressing. rowOff carries each active element's
//     flat-plane row offset (element index × stride, in activeIdx order),
//     computed once per frame by the session, so a gather's address is one
//     sequential table load plus the clamped index — no multiply, and no
//     per-element slice header to chase as the EchoBuffer kernels do.
//   - Independent accumulators over an 8-element unrolled body. The
//     per-voxel sum is a chain of dependent adds in the scalar kernels;
//     splitting it across four float32 lanes lets the out-of-order core
//     keep many echo-plane gathers in flight instead of serializing every
//     element on one register.
//
// The kernel iterates the compacted active-element list: zero apodization
// weights never enter the loop — the gathers are what this kernel's
// runtime is made of, and a full-aperture walk would pay ~20 % more of
// them (measured slower on the B3 sweep despite its simpler indexing).
//
// The float32 sum order differs from the golden kernel, so this path is
// gated by the ≥ 60 dB PSNR test rather than bit identity. The scalar tail
// loop (and the wide kernels the session falls back to when the echo
// window defeats flattening) keep every geometry correct regardless of
// aperture size.
func (e *Engine) accumulateNappe16Narrow(blk delay.Block16, flat []float32, rowOff []int32, win, id int, out *Volume, add bool) {
	uw := uint(win)
	nE := len(e.apod)
	idxs := e.activeIdx
	nA := len(idxs)
	w := e.activeW32[:nA]
	ro := rowOff[:nA]
	k := 0
	for it := 0; it < e.Cfg.Vol.Theta.N; it++ {
		base := out.Vol.Linear(scan.Index{Theta: it, Phi: 0, Depth: id})
		for ip := 0; ip < e.Cfg.Vol.Phi.N; ip++ {
			voxel := blk[k : k+nE]
			var acc0, acc1, acc2, acc3 float32
			j := 0
			for ; j+8 <= nA; j += 8 {
				u0 := int(ro[j]) + int(min(uint(int(voxel[idxs[j]])), uw))
				u1 := int(ro[j+1]) + int(min(uint(int(voxel[idxs[j+1]])), uw))
				u2 := int(ro[j+2]) + int(min(uint(int(voxel[idxs[j+2]])), uw))
				u3 := int(ro[j+3]) + int(min(uint(int(voxel[idxs[j+3]])), uw))
				u4 := int(ro[j+4]) + int(min(uint(int(voxel[idxs[j+4]])), uw))
				u5 := int(ro[j+5]) + int(min(uint(int(voxel[idxs[j+5]])), uw))
				u6 := int(ro[j+6]) + int(min(uint(int(voxel[idxs[j+6]])), uw))
				u7 := int(ro[j+7]) + int(min(uint(int(voxel[idxs[j+7]])), uw))
				acc0 += w[j] * flat[u0]
				acc1 += w[j+1] * flat[u1]
				acc2 += w[j+2] * flat[u2]
				acc3 += w[j+3] * flat[u3]
				acc0 += w[j+4] * flat[u4]
				acc1 += w[j+5] * flat[u5]
				acc2 += w[j+6] * flat[u6]
				acc3 += w[j+7] * flat[u7]
			}
			for ; j < nA; j++ { // scalar tail: active counts not divisible by 8
				acc0 += w[j] * flat[int(ro[j])+int(min(uint(int(voxel[idxs[j]])), uw))]
			}
			if add {
				out.Data[base+ip] += float64((acc0 + acc1) + (acc2 + acc3))
			} else {
				out.Data[base+ip] = float64((acc0 + acc1) + (acc2 + acc3))
			}
			k += nE
		}
	}
}

// accumulateNappe16NarrowScalar is the unoptimized form of the narrow
// kernel — one accumulator, same clamp — kept as the executable reference
// the unrolled kernel is property-tested against (identical inputs, sums
// differing only by float32 association).
func (e *Engine) accumulateNappe16NarrowScalar(blk delay.Block16, flat []float32, rowOff []int32, win, id int, out *Volume, add bool) {
	uw := uint(win)
	nE := len(e.apod)
	idxs := e.activeIdx
	w := e.activeW32[:len(idxs)]
	k := 0
	for it := 0; it < e.Cfg.Vol.Theta.N; it++ {
		base := out.Vol.Linear(scan.Index{Theta: it, Phi: 0, Depth: id})
		for ip := 0; ip < e.Cfg.Vol.Phi.N; ip++ {
			voxel := blk[k : k+nE]
			var acc float32
			for j, d := range idxs {
				u := min(uint(int(voxel[d])), uw)
				acc += w[j] * flat[int(rowOff[j])+int(u)]
			}
			if add {
				out.Data[base+ip] += float64(acc)
			} else {
				out.Data[base+ip] = float64(acc)
			}
			k += nE
		}
	}
}
