// The kernels' side of the tile-native resident block
// (delaycache.Native): a session hands a resident block to
// accumulateNativeI16 or accumulateNativeF64 as the store holds it. On
// AVX-512 hosts the tile-native bodies read its records directly; every
// other route, and every tile a body hands back, runs from the block's
// expanded delays (delaycache.Native.Expand and ExpandTile, the form's
// executable specification), so each native entry is == its raw twin.
package beamform

import (
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/rf"
)

// nativeCovers is the delay half of the tile-native bodies' bounds
// contract: the block was cut from this engine's layout — so its tiles are
// the engine's — and holds one record per tile and 16-element group.
func (e *Engine) nativeCovers(nat *delaycache.Native) bool {
	nG := (len(e.apod) + 15) / 16
	return nat.Layout == e.layout() && len(nat.Recs) == len(e.tiles)/16*nG*delaycache.NativeRecordBytes
}

// handBackF64 runs tile i of a tile-native block from its expanded delays
// (scratch holds at least 16·nE) through the reference's sequence, voxel by
// voxel, stored or added into the nappe's dst. A partial last tile repeats
// its last voxel, which is summed once.
func (e *Engine) handBackF64(nat *delaycache.Native, i int, scratch []int16, bufs []rf.EchoBuffer, dst []float64, add bool) {
	nE := len(e.apod)
	nat.ExpandTile(i, scratch)
	tile := e.tiles[16*i : 16*i+16]
	for s, v := range tile {
		if s > 0 && v == tile[s-1] {
			continue
		}
		voxel := scratch[s*nE : (s+1)*nE]
		acc := 0.0
		for j, d := range e.activeIdx {
			acc += e.activeW[j] * bufs[d].At(int(voxel[d]))
		}
		if add {
			dst[v] += acc
		} else {
			dst[v] = acc
		}
	}
}
