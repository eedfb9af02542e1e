// The golden accumulate kernel over narrow delay blocks: it consumes
// delay.Block16 selection indices — the one delay representation the
// session moves, as the paper's hardware moves 14-bit words (§V-B) —
// against float64 echo buffers, bit-identical to the scalar reference at
// any window length (a nappe whose saturated index could stand for an
// in-window delay never reaches it; see Session). kernel_i16.go holds the
// fixed-point kernel.
package beamform

import (
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// accumulateNappe16Ref sums Eq. 1 for one depth slice from a quantized nappe
// block at float64 echo precision, in beamformNappe's store/add modes. The
// element iteration, weights and accumulation order are exactly
// beamformNappe's, and every index but the saturated math.MaxInt16 — and
// that one too within delay.MaxEchoWindow — selects the same sample the
// fractional delay would have, so this kernel is bit-identical to the
// scalar reference while reading a quarter of a float64 delay's bytes.
//
// This body is the golden reference of the float64 kernel: the purego and
// non-amd64 builds' accumulateNappe16 is exactly this (kernel_f64_generic.go),
// and both native bodies (kernel_f64_amd64.go: the AVX-512 tile body and the
// SSE2 body) are property-tested bitwise equal to it.
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
