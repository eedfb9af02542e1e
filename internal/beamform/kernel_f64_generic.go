//go:build purego || !amd64

package beamform

import (
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/rf"
)

// f64KernelBody names the body that runs every float64 nappe on this build.
func f64KernelBody() string { return "ref" }

// accumulateNappe16 on the purego (or non-amd64) build is the scalar
// golden reference itself, as accumulateNappe16I16 is for the fixed-point
// kernel: CI runs the kernel suite under -tags purego so the oracle is
// executed, not only compiled.
func (e *Engine) accumulateNappe16(blk delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) {
	e.accumulateNappe16Ref(blk, bufs, id, out, add)
}

// accumulateNativeF64 runs the reference on the block: as the store kept
// it, or expanded into scratch. Nothing is gathered.
func (e *Engine) accumulateNativeF64(nat *delaycache.Native, scratch delay.Block16, bufs []rf.EchoBuffer, id int, out *Volume, add bool) int {
	blk := nat.Raw
	if blk == nil {
		nat.Expand(scratch)
		blk = scratch
	}
	e.accumulateNappe16(blk, bufs, id, out, add)
	return 0
}
