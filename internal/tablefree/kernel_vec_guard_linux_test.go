//go:build linux

package tablefree

import (
	"fmt"
	"math/bits"
	"syscall"
	"testing"
	"unsafe"

	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// guarded maps n values of T whose last one ends flush against a PROT_NONE
// page; release unmaps them.
func guarded[T any](t *testing.T, n int) (vals []T, release func()) {
	t.Helper()
	size, page := n*int(unsafe.Sizeof(*new(T))), syscall.Getpagesize()
	span := (size + page - 1) / page * page
	all, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(all[span:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&all[span-size])), n), func() {
		if err := syscall.Munmap(all); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLaneFillFlushAgainstGuardPage proves the lane bodies' loads and
// stores cannot leave their buffers: the element coordinates (which the
// eight-lane body loads with masks two registers at a time), the permute
// table, a batch's voxels and its planes each end flush against a
// PROT_NONE page, on apertures nx, ny ∈ {1, 7, 8, 9, 15, 16} — one lane,
// either side of a register's eight, the two-register limit. Batches of 1,
// 2, 63 and 64 voxels run through lanes and fixedPlanes, and the nappe
// through FillNappe16, on every route; a body that over-reads dies here
// with SIGSEGV instead of passing on whatever the heap had next, and every
// slot must equal the fixedRow path.
func TestLaneFillFlushAgainstGuardPage(t *testing.T) { eachBody(t, laneFillFlushAgainstGuardPage) }

func laneFillFlushAgainstGuardPage(t *testing.T) {
	axes := []int{1, 7, 8, 9, 15, 16}
	for _, nx := range axes {
		for _, ny := range axes {
			p := fixedProvider(Config{
				Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 5, 14, 6),
				Arr:  xdcr.NewArray(nx, ny, 0.385e-3/2),
				Conv: conv,
			})
			name := fmt.Sprintf("%dx%d", nx, ny)
			var releases []func()
			guard := func(e []float64) []float64 {
				g, release := guarded[float64](t, len(e))
				copy(g, e)
				releases = append(releases, release)
				return g
			}
			p.elemX, p.elemY = guard(p.elemX), guard(p.elemY)
			perm := *p.perm
			groups, release := guarded[permGroup](t, len(perm.groups))
			copy(groups, perm.groups)
			perm.groups, p.perm = groups, &perm
			releases = append(releases, release)

			dp := p.FixedDP.Integer()
			nE, id := nx*ny, 3
			var all []voxel
			eachPlane(p, id, func(_ int, v voxel, _, _ []float64) { all = append(all, v) })
			xt2, yt2 := make([]float64, nx), make([]float64, ny)
			vec := 0
			for _, n := range []int{1, 2, 63, 64} {
				vox, releaseVox := guarded[voxel](t, n)
				copy(vox, all)
				planes, releasePlanes := guarded[int16](t, n*nE)
				refused := p.lanes(planes, vox, txMask(vox), xt2, yt2, laneCallFor(p, dp))
				p.fixedPlanes(planes, vox, refused, xt2, yt2, dp, 0)
				vec += n - bits.OnesCount64(refused)
				want := make([]int16, nE)
				for k, v := range vox {
					p.planeTerms(v.sx, v.sy, xt2, yt2)
					rowsRef(want, xt2, yt2, v.zz, v.txRaw, dp)
					for e, w := range want {
						if got := planes[k*nE+e]; got != w {
							t.Fatalf("%s batch of %d, voxel %d slot %d: %d != fixedRow %d", name, n, k, e, got, w)
						}
					}
				}
				releaseVox()
				releasePlanes()
			}
			if laneColumns(nx, ny) > 0 && vec == 0 {
				t.Errorf("%s: no voxel took the lane body", name)
			}
			dst, releaseDst := guarded[int16](t, p.Layout().BlockLen())
			want := make([]int16, len(dst))
			p.FillNappe16(id, dst)
			refFill16(p, id, want)
			for s := range want {
				if dst[s] != want[s] {
					t.Fatalf("%s FillNappe16 slot %d: %d != fixedRow %d", name, s, dst[s], want[s])
				}
			}
			releaseDst()
			for _, release := range releases {
				release()
			}
		}
	}
}
