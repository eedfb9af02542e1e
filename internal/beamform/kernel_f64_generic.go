//go:build purego || !amd64

package beamform

import (
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
)

// f64KernelBody names the body accumulateNappe16 runs on this build.
func f64KernelBody() string { return "ref" }

// accumulateNappe16 on the purego (or non-amd64) build is the scalar
// golden reference itself, as accumulateNappe16I16 is for the fixed-point
// kernel: CI runs the kernel suite under -tags purego so the oracle is
// executed, not only compiled.
func (e *Engine) accumulateNappe16(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) {
	e.accumulateNappe16Ref(blk, bufs, id, out, add)
}
