//go:build purego || !amd64

package tablefree

import "ultrabeam/internal/sqrtapprox"

// fillKernelBody names the body fixedPlane runs on this build.
func fillKernelBody() string { return "ref" }

// laneCall on the purego (or non-amd64) build offers no lane body: fixedRow,
// the executable specification the native bodies are held bit-identical
// to, emits every slot. CI runs the full suite under -tags purego so this
// route is always exercised, never just compiled.
type laneCall struct{ nVec int }

func (p *Provider) initLaneCall(*laneCall, *sqrtapprox.IntDatapath) {}

// lanes takes no columns on this build; it forms the voxel's terms for
// fixedRow.
func (p *Provider) lanes(_ []int16, v voxel, xt2, yt2 []float64, _ *laneCall, _, _ float64, cur int) (done, next int) {
	p.planeTerms(v.sx, v.sy, xt2, yt2)
	return 0, cur
}
