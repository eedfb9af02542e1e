//go:build purego || !amd64

package tablefree

import "ultrabeam/internal/sqrtapprox"

// fillKernelBody names the body lanes runs on this build.
func fillKernelBody() string { return "ref" }

// laneCall on the purego (or non-amd64) build offers no lane body: fixedRow,
// the executable specification the native bodies are held bit-identical
// to, emits every slot. CI runs the full suite under -tags purego so this
// route is always exercised, never just compiled.
type laneCall struct{ nVec int }

func (p *Provider) initLaneCall(*laneCall, *sqrtapprox.IntDatapath) {}

// lanes takes no voxel on this build.
func (p *Provider) lanes(_ []int16, vox []voxel, _ uint64, _, _ []float64, _ *laneCall) uint64 {
	return allRefused(len(vox))
}
