//go:build purego || !amd64

package tablefree

import "ultrabeam/internal/sqrtapprox"

// fillKernelBody names the body fixedPlane runs on this build.
func fillKernelBody() string { return "ref" }

// vecPlane on the purego (or non-amd64) build takes no columns: fixedRow,
// the executable specification the native body is held bit-identical to,
// emits every slot. CI runs the full suite under -tags purego so this route
// is always exercised, never just compiled.
func vecPlane(_ []int16, _, _ []float64, _ float64, _ int64, _ *sqrtapprox.IntDatapath, _ *planePerm, cur int) (done, next int) {
	return 0, cur
}
