//go:build amd64 && !purego

package beamform

import (
	"testing"

	"ultrabeam/internal/delay"
)

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
// Every body runs every case against the twin, steerRow's formula then the
// reference, and the tile bodies hand back exactly the tiles the accept
// rule says. A body that over-reads dies here with SIGSEGV instead of
// passing silently on whatever the heap had next.
func TestFusedSteerOperandsFlushAgainstGuardPage(t *testing.T) {
	const frac = 5
	v := newVerdicts(kernelRoutes())
	var b builder
	for _, ap := range [][2]int{{3, 3}, {17, 1}, {12, 5}} {
		for _, win := range []int{9, 8512} {
			c := b.build(t, kshape{NX: ap[0], NY: ap[1], NTh: 7, NPh: 5, NDep: 1, Win: win, Shift: -1, Seed: 15})
			nE, nTh, nPh := len(c.eng.apod), 7, 5
			pf := (nPh + 1) / 2
			plane, releasePlane := guarded[int16](t, len(c.plane))
			c.plane = plane
			c.fillPlane(plane, sDirty)
			xt, releaseXT := guarded[int32](t, nTh*pf*nE)
			ry, releaseRy := guarded[int32](t, nPh*nE)
			c.ops = &delay.SteerOperands{Frac: frac, Half: 1 << (frac - 1), XT: xt, XOff: make([]int32, nTh*nPh)}
			for k := range c.ops.XOff {
				c.ops.XOff[k] = int32((k/nPh*pf + min(k%nPh, nPh-1-k%nPh)) * nE)
			}
			offs := c.eng.steerTileOffsets(c.ops)
			c.route, c.rys = &steerRoute{ops: c.ops}, [][]int32{ry}
			var releaseOffs func()
			c.route.offs, releaseOffs = guarded[int32](t, len(offs))
			copy(c.route.offs, offs)
			cases := [][2]int32{{int32(win), 0}, {-1, 0}, {32767, 0}} // every index, and the shift of every other direction
			if win > 40 {
				cases = append(cases, [2]int32{int32(win), -40})
			}
			for _, cs := range cases {
				for i := range ry {
					ry[i] = cs[0] << frac
				}
				for i := range xt {
					xt[i] = int32(i/nE%2) * cs[1] << frac
				}
				steerIndices(c.blks[0], c.ops, ry, nPh, nE)
				c.check(t, v, famI16)
			}
			releasePlane()
			releaseXT()
			releaseRy()
			releaseOffs()
		}
	}
	v.report(t)
}
