//go:build purego || !amd64

package beamform

import "testing"

// i16HostBodies lists the i16 accumulate bodies this build can run: the
// reference alone.
func i16HostBodies(e *Engine) []i16Body {
	return []i16Body{i16RefBody(e)}
}

// f64HostBodies lists the f64 accumulate bodies this build can run: the
// reference alone.
func f64HostBodies(e *Engine) []f64Body {
	return []f64Body{f64RefBody(e)}
}

// eachSteerBody runs f once under the name of the fused steer body this
// build runs: "ref", fill-then-accumulate.
func eachSteerBody(t *testing.T, f func(t *testing.T)) {
	t.Run(steerKernelBody(), f)
}

// steerHostBodies lists the fused steer bodies this build can run: none.
func steerHostBodies(*Engine) []steerBody { return nil }
