//go:build amd64 && !purego

package tablefree

import (
	"testing"
	"unsafe"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/sqrtapprox"
)

// TestSegOpLayout pins the sqrtapprox.SegOp offsets kernel_vec_amd64.s
// hard-codes (SEG_*): go_asm.h only covers this package's own types.
func TestSegOpLayout(t *testing.T) {
	var op sqrtapprox.SegOp
	got := [6]uintptr{unsafe.Offsetof(op.Lo), unsafe.Offsetof(op.Hi), unsafe.Offsetof(op.LoRaw), unsafe.Offsetof(op.C1), unsafe.Offsetof(op.V0), unsafe.Sizeof(op)}
	if want := [6]uintptr{0, 8, 16, 24, 32, 40}; got != want {
		t.Fatalf("SegOp Lo/Hi/LoRaw/C1/V0 offsets and size = %v, the assembly assumes %v", got, want)
	}
}

// hostAVX2 and hostAVX512 are the probes as the host set them, read before
// any test clears one.
var hostAVX2, hostAVX512 = cpufeat.AVX2, cpufeat.AVX512

// hostRoutes lists the routes this host can take, widest first: the probes
// as the host set them, AVX-512 cleared (an AVX2-only host), both cleared
// (fixedRow alone).
func hostRoutes() []route {
	var rs []route
	if hostAVX512 {
		rs = append(rs, route{"avx512", true, true})
	}
	if hostAVX2 {
		rs = append(rs, route{"avx2", true, false})
	}
	return append(rs, route{"ref", false, false})
}

// use sets the probes to the route's and returns what restores them.
func (r route) use() (restore func()) {
	avx2, avx512 := cpufeat.AVX2, cpufeat.AVX512
	cpufeat.AVX2, cpufeat.AVX512 = r.avx2, r.avx512
	return func() { cpufeat.AVX2, cpufeat.AVX512 = avx2, avx512 }
}

// startAt puts lc's carried segment cursor on segment k.
func (lc *laneCall) startAt(k int) {
	if lc.nVec == 0 {
		return
	}
	lc.cur = k
	if lc.wide {
		lc.a.ops = &lc.dp.Ops[k]
	}
}

// handLanes is lanes on a batch of hand-built voxels, the transmit guard
// marked first; on the four-lane route over a grid that is not a pitch
// grid, it scans each voxel's extremes from its terms in place of
// termExtremes and runs lanePlane on them.
func handLanes(q *Provider, plane []int16, vox []voxel, xt2, yt2 []float64, lc *laneCall) uint64 {
	refused := txMask(vox)
	if lc.nVec == 0 || lc.wide || q.pitchGrid {
		return q.lanes(plane, vox, refused, xt2, yt2, lc)
	}
	nE := len(xt2) * len(yt2)
	for k := range vox {
		v := &vox[k]
		q.planeTerms(v.sx, v.sy, xt2, yt2)
		xlo, xhi := scanExtremes(xt2[:lc.nVec])
		ylo, yhi := scanExtremes(yt2)
		if refused>>k&1 != 0 || !q.lanePlane(plane[k*nE:][:nE], v, xt2, yt2, lc, xlo+ylo+v.zz, xhi+yhi+v.zz) {
			refused |= 1 << k
		}
	}
	return refused
}
