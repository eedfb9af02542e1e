//go:build purego || !amd64

package beamform

import "ultrabeam/internal/delay"

// fusedSteer reports whether the fused steer body runs on this build: never.
// Purego and non-amd64 builds keep fill-then-accumulate — steerRow into the
// worker's block, then the i16 reference — which is the fused body's golden
// twin.
func fusedSteer() bool { return false }

// steerKernelBody names the body a fused-eligible nappe runs on this build.
func steerKernelBody() string { return "ref" }

// steerTileOffsets has no tile body to lay offsets out for on this build.
func (e *Engine) steerTileOffsets(*delay.SteerOperands) []int32 { return nil }

// accumulateSteerI16 has no body on this build; the session never routes a
// nappe here because fusedSteer is false.
func (e *Engine) accumulateSteerI16(_ []int32, _ *steerRoute, _ []int16, _ *i16Table, _ int, _ *Volume, _ float64, _ bool, _ []int32) int {
	panic("beamform: no fused steer body on this build")
}
