//go:build purego || !amd64

package beamform

import (
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
)

// i16KernelBody names the body accumulateNappe16I16 runs on this build.
func i16KernelBody() string { return "ref" }

// accumulateNappe16I16 on the purego (or non-amd64) build is the scalar
// golden reference itself: the executable oracle the native variant is
// held bit-identical to. CI runs the full kernel suite under -tags purego
// so this body is always exercised, never just compiled. The worker's
// int32 row is the native body's scratch and goes unused here, and no tile
// is ever handed back.
func (e *Engine) accumulateNappe16I16(blk delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, _ []int32) (fallbacks int) {
	e.accumulateNappe16I16Ref(blk, plane, tab, id, out, scale, add)
	return 0
}

// accumulateNativeI16 runs the reference on the block: as the store kept
// it, or expanded into scratch.
func (e *Engine) accumulateNativeI16(nat *delaycache.Native, scratch delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, scale float64, add bool, row []int32) int {
	blk := nat.Raw
	if blk == nil {
		nat.Expand(scratch)
		blk = scratch
	}
	return e.accumulateNappe16I16(blk, plane, tab, id, out, scale, add, row)
}
