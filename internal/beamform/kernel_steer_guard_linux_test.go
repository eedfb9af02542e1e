//go:build amd64 && !purego

package beamform

import (
	"testing"
	"unsafe"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// guardedInt32s maps n int32s whose last one ends flush against a
// PROT_NONE page (flushAgainstGuardPage).
func guardedInt32s(t *testing.T, n int) ([]int32, func()) {
	t.Helper()
	mem, release := flushAgainstGuardPage(t, n*4)
	return unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), n), release
}

// TestFusedSteerOperandsFlushAgainstGuardPage proves the fused bodies'
// loads cannot leave their operands: ry (exactly the NPhi rows the kernel
// reads), the tiled x table XT, the tile body's row offsets and the plane
// each end flush against a PROT_NONE page. The apertures leave a short last
// 16-element group, so the tile body's last group loads its ry and XT rows
// under a mask; the last θ's middle φ names XT's last row, and the last φ
// ry's last row. Every index is win (a span-0 tile the tile body takes,
// whose last element's window ends on the plane's last int16, its guard
// slot); where the window allows, win−40 on every other steering direction
// (wide groups, so the second half of each 64-word window load ends there
// too); or −1 and 32767, which the tile body hands back to the AVX2 body.
// Both fused bodies run every case and must equal the twin, steerRow's
// formula then the reference. A body that over-reads dies here with
// SIGSEGV instead of passing silently on whatever the heap had next.
func TestFusedSteerOperandsFlushAgainstGuardPage(t *testing.T) {
	const frac = 5
	for _, ap := range []struct{ nx, ny int }{{3, 3}, {17, 1}, {12, 5}} {
		for _, win := range []int{9, 8512} {
			cfg := Config{
				Vol:    scan.NewVolume(geom.Radians(30), geom.Radians(8), 0.02, 7, 5, 1),
				Arr:    xdcr.NewArray(ap.nx, ap.ny, 0.385e-3/2),
				Conv:   conv,
				Window: xdcr.Rect,
			}
			h := newI16HarnessFor(t, cfg, win)
			nE, nTh, nPh := len(h.eng.apod), cfg.Vol.Theta.N, cfg.Vol.Phi.N
			pf := (nPh + 1) / 2
			planeMem, releasePlane := flushAgainstGuardPage(t, len(h.plane)*2)
			h.plane = unsafe.Slice((*int16)(unsafe.Pointer(&planeMem[0])), len(h.plane))
			h.fillPlane(true)
			xt, releaseXT := guardedInt32s(t, nTh*pf*nE)
			ry, releaseRy := guardedInt32s(t, nPh*nE)
			ops := &delay.SteerOperands{Frac: frac, Half: 1 << (frac - 1), XT: xt, XOff: make([]int32, nTh*nPh)}
			for it := 0; it < nTh; it++ {
				for ip := 0; ip < nPh; ip++ {
					ops.XOff[it*nPh+ip] = int32((it*pf + min(ip, nPh-1-ip)) * nE)
				}
			}
			offs := h.eng.steerTileOffsets(ops)
			route := &steerRoute{ops: ops}
			var releaseOffs func()
			route.offs, releaseOffs = guardedInt32s(t, len(offs))
			copy(route.offs, offs)

			type guardCase struct {
				name     string
				idx, alt int32 // every index, and the shift of every other direction
				back     bool  // the tile body hands every tile back
			}
			cases := []guardCase{{"win", int32(win), 0, false}, {"negative", -1, 0, true}, {"past-win", 32767, 0, true}}
			if win > 40 {
				cases = append(cases, guardCase{"wide", int32(win), -40, false})
			}
			want := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
			got := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
			for _, c := range cases {
				for i := range ry {
					ry[i] = c.idx << frac
				}
				for r := 0; r < nTh*pf; r++ {
					for d := 0; d < nE; d++ {
						xt[r*nE+d] = int32(r%2) * c.alt << frac
					}
				}
				for k := 0; k < nTh*nPh; k++ {
					for d := 0; d < nE; d++ {
						v := ry[k%nPh*nE+d] + xt[int(ops.XOff[k])+d]
						h.blk[k*nE+d] = int16((v + ops.Half + v>>31) >> frac)
					}
				}
				h.eng.accumulateNappe16I16Ref(h.blk, h.plane, h.tab, 0, want, 1, false)
				for _, body := range steerHostBodies(h.eng) {
					backs := body.run(ry, route, h.plane, h.tab, 0, got, h.row)
					if wantBacks := map[bool]int{false: 0, true: len(h.eng.tiles) / 16}[c.back]; body.name == "avx512" && backs != wantBacks {
						t.Fatalf("%d×%d win=%d %s: the tile body handed back %d tiles, want %d", ap.nx, ap.ny, win, c.name, backs, wantBacks)
					}
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%d×%d win=%d %s %s: voxel %d: fused %v != fill+ref %v",
								ap.nx, ap.ny, win, c.name, body.name, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
			h.plane, ops.XT, route.offs = nil, nil, nil
			releasePlane()
			releaseXT()
			releaseRy()
			releaseOffs()
		}
	}
}
