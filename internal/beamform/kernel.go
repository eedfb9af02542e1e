// The golden accumulate kernel over narrow delay blocks. accumulateNappe
// (beamform.go) is the float64-block kernel kept for echo windows beyond
// delay.MaxEchoWindow; the kernel here consumes delay.Block16 selection
// indices — the representation the paper's hardware moves (14-bit words,
// §V-B) — against float64 echo buffers, bit-identical to the scalar
// reference. kernel_i16.go holds the fixed-point kernel.
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
