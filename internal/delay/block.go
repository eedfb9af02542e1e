// Block-granular delay generation: the nappe-at-a-time counterpart of the
// scalar Provider interface. The paper's two architectures both exploit the
// Algorithm 1 nappe sweep — all (θ, φ, element) delays of one depth slice
// are produced together, amortizing per-voxel work across the aperture and
// per-nappe work across the whole steering plane. BlockProvider is the
// software form of that datapath: one FillNappe16 call materializes a full
// θ×φ×element plane of int16 selection indices into a caller-owned
// contiguous buffer, removing the per-delay virtual dispatch that makes the
// scalar path the software analogue of the random-access table problem
// (§II-B).
package delay

import "fmt"

// Layout describes the stride order of a nappe delay block: θ outermost,
// then φ, then element row ej, then element column ei fastest. The element
// plane of one voxel is therefore contiguous and indexed exactly like
// xdcr.Array.Index (ej·NX + ei), so the beamformer walks a nappe block and
// its apodization table with the same linear cursor.
type Layout struct {
	NTheta, NPhi int // steering grid of the nappe
	NX, NY       int // element counts along x and y
}

// BlockLen returns the element count of one nappe block.
func (l Layout) BlockLen() int { return l.NTheta * l.NPhi * l.NX * l.NY }

// VoxelStride returns the per-voxel element-plane length (NX·NY).
func (l Layout) VoxelStride() int { return l.NX * l.NY }

// SnakeTiles cuts the NTheta×NPhi voxel plane of a nappe into tiles of 16
// voxel indices (θ-major, φ fastest, as a block lays voxels out) along a
// boustrophedon walk: θ rows alternate between φ up and φ down, so every
// tile is a connected path of neighbouring voxels whose delays differ by
// little. A partial last tile repeats its last voxel. The last θ row runs φ
// up, so the walk ends on the plane's last voxel and the list's last entry
// is its largest index. The AVX-512 tile bodies walk a nappe in this order,
// and the delay cache stores its resident blocks tile by tile in it.
func (l Layout) SnakeTiles() []int32 {
	nTh, nPh := l.NTheta, l.NPhi
	n := nTh * nPh
	tiles := make([]int32, 0, (n+15)/16*16)
	for it := 0; it < nTh; it++ {
		for j := 0; j < nPh; j++ {
			ip := j
			if (nTh-1-it)%2 == 1 {
				ip = nPh - 1 - j
			}
			tiles = append(tiles, int32(it*nPh+ip))
		}
	}
	for len(tiles)%16 != 0 {
		tiles = append(tiles, tiles[len(tiles)-1])
	}
	return tiles
}

// Index linearizes (it, ip, ei, ej) into a nappe block.
func (l Layout) Index(it, ip, ei, ej int) int {
	return ((it*l.NPhi+ip)*l.NY+ej)*l.NX + ei
}

// Valid reports whether every dimension is positive.
func (l Layout) Valid() bool {
	return l.NTheta > 0 && l.NPhi > 0 && l.NX > 0 && l.NY > 0
}

// String renders the block geometry.
func (l Layout) String() string {
	return fmt.Sprintf("%d×%dθφ × %d×%d elements", l.NTheta, l.NPhi, l.NX, l.NY)
}

// BlockProvider generates delays one depth nappe at a time, in the
// quantized Block16 form the session kernels consume. FillNappe16 must
// write exactly Index16(DelaySamples(…)) into every slot — the block path
// changes the schedule of the computation, never its arithmetic — so the
// scalar method remains the executable specification and the equivalence
// tests hold every implementation to it.
//
// The fill must be safe for concurrent use by multiple goroutines with
// distinct dst buffers: the streaming beamformer calls it from every
// worker.
type BlockProvider interface {
	Provider
	// Layout reports the block geometry this provider fills.
	Layout() Layout
	// FillNappe16 writes the quantized delays of depth nappe id into dst
	// following Layout. dst must hold at least Layout().BlockLen() values.
	FillNappe16(id int, dst Block16)
}

// AsBlock returns p as a BlockProvider filling blocks of layout want: p
// itself when it already implements the interface for that geometry, or a
// ScalarAdapter otherwise — so any plain Provider works on the block path
// unchanged, it just pays the per-delay dispatch the native fills avoid.
func AsBlock(p Provider, want Layout) BlockProvider {
	if bp, ok := p.(BlockProvider); ok && bp.Layout() == want {
		return bp
	}
	return &ScalarAdapter{P: p, L: want}
}

// ScalarAdapter lifts a scalar Provider onto the block interface by calling
// DelaySamples once per block slot in layout order.
type ScalarAdapter struct {
	P Provider
	L Layout
}

// ScalarAdapter lifts any Provider onto the block interface.
var _ BlockProvider = (*ScalarAdapter)(nil)

// Name implements Provider, forwarding to the wrapped provider.
func (a *ScalarAdapter) Name() string { return a.P.Name() }

// DelaySamples implements Provider, forwarding to the wrapped provider.
func (a *ScalarAdapter) DelaySamples(it, ip, id, ei, ej int) float64 {
	return a.P.DelaySamples(it, ip, id, ei, ej)
}

// Layout implements BlockProvider.
func (a *ScalarAdapter) Layout() Layout { return a.L }

// Layout implements BlockProvider for the exact reference.
func (e *Exact) Layout() Layout {
	return Layout{NTheta: e.Vol.Theta.N, NPhi: e.Vol.Phi.N, NX: e.Arr.NX, NY: e.Arr.NY}
}
