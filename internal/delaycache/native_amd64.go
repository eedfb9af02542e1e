//go:build amd64 && !purego

package delaycache

import (
	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
)

// convertTilesAVX512 is the converter's vector body (native_amd64.s): for
// each 16-voxel tile of tiles and each 16-element group it writes the
// record to recs — bases, spans and pair-ordered offsets — and the group's
// flag to flags: bit 0 when some element's span exceeds 255, bit 1 when
// some element's unsigned min is ≤ math.MaxInt16 and its max ≥ it. A
// flagged record may hold anything. It checks nothing: the caller must
// hold len(recs) = 304·len(flags), len(flags) = len(tiles)/16·⌈nE/16⌉,
// every tile index v with (v+1)·nE ≤ len(blk), and lastLen the mask of the
// last group's elements.
//
//go:noescape
func convertTilesAVX512(recs []byte, flags []uint8, blk []int16, tiles []int32, nE int, lastLen uint16)

// tileNativeHost reports whether this host runs the AVX-512 tile bodies,
// the only readers of the records: the probe they dispatch on.
func tileNativeHost() bool { return cpufeat.AVX512 }

// convertVector runs the vector body over blk when this host has it and
// the operands meet its contract, filling flags, and reports whether it
// ran.
func convertVector(n *Native, flags []uint8, blk delay.Block16) bool {
	nE, nVox := n.Layout.VoxelStride(), n.Layout.NTheta*n.Layout.NPhi
	if !cpufeat.AVX512 || len(blk) < nVox*nE || len(n.Recs) != NativeRecordBytes*len(flags) ||
		len(flags) != len(n.Tiles)/tileSlots*n.groups() || len(n.Tiles)%tileSlots != 0 {
		return false
	}
	for _, v := range n.Tiles {
		if v < 0 || int(v) >= nVox {
			return false
		}
	}
	lastLen := uint16(0xFFFF)
	if r := nE % 16; r != 0 {
		lastLen = 1<<r - 1
	}
	convertTilesAVX512(n.Recs, flags, blk, n.Tiles, nE, lastLen)
	return true
}
