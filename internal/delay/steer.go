// Fused steering operands: the seam that lets a kernel compute a steered
// delay in the register that gathers with it instead of reading it back from
// a filled block. TABLESTEER's Fig. 4 datapath produces every delay of a
// nappe from three small resident tables — the depth's unfolded reference
// slice, the φ's y words, the (θ, φ)'s x words — with two integer adds and
// one rounding shift; a block fill materializes those results to memory only
// for the accumulate kernel's first instruction to load them again. A
// provider that implements SteerSource hands the kernel the operands
// instead, and the block never exists.
package delay

// SteerOperands is the per-geometry half of a fused steer accumulate, shared
// by every transmit of a provider set. With ry filled by SteerRows for nappe
// id, the selection index of element d (d = ej·NX + ei) at voxel (θ, φ) is
//
//	v   = ry[φ·NX·NY + d] + XT[XOff[θ·NPhi + φ] + d]
//	idx = (v + Half + v>>31) >> Frac
//
// in int32 arithmetic, and a provider returns operands only where its formats
// prove that no add overflows and idx never leaves the int16 range — so idx
// is exactly the int16 its FillNappe16 stores in that slot.
type SteerOperands struct {
	Frac uint32 // fractional bits of the common binary point, in [1, 31]
	Half int32  // the rounding bias, 1 << (Frac-1)
	// XT holds the x corrections tiled across element rows: one NX·NY row
	// per steering direction, so eight consecutive elements are one load
	// even where an 8-group straddles two element rows.
	XT []int32
	// XOff[θ·NPhi+φ] is the offset of voxel (θ, φ)'s row in XT (folded φ
	// directions share one row).
	XOff []int32
}

// SteerSource is the optional operand source a steering generator offers
// beside its block fills. The beamform session discovers it at
// construction, the way it discovers NappeSource16, and on a non-resident
// nappe of the fixed-point datapath beamforms straight from the operands.
type SteerSource interface {
	// SteerOperands returns the shared operands, or nil when the provider's
	// datapath does not prove the fused arithmetic exact (the float
	// datapath, unproven formats). A nil result means "fill blocks".
	SteerOperands() *SteerOperands
	// SteerRows writes the per-nappe operand ry[φ·NX·NY + d] = ref(id, d) +
	// y(φ, ej) for every φ of the layout: the depth's unfolded reference
	// slice plus each φ's y word. ry must hold (NPhi+1)·NX·NY words; the
	// last NX·NY are the provider's scratch (they end up holding the
	// unfolded reference). Valid only when SteerOperands is non-nil, and
	// safe for concurrent use with distinct ry.
	SteerRows(id int, ry []int32)
}
