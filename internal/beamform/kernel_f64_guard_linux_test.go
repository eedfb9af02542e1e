//go:build linux

package beamform

import (
	"testing"

	"ultrabeam/internal/rf"
)

// TestF64KernelRowsFlushAgainstGuardPage proves the native bodies' echo
// reads cannot leave an element's row: every row is mapped so that its last
// sample is the last eight bytes before a PROT_NONE page, and the delays
// put the tile-native body's reads at the row end — a narrow window of one
// sample (delays n−1; an unmasked eight-qword load would run seven samples
// into the guard), a wide one of sixteen (n−16 and n−1 alternating; the
// second load's mask ends on the last sample), and a gather (n−1 and n
// alternating: max = n fails the tile's and each half's accept rule, and
// the lane at n must stay masked) — and the SSE2 body's CMOV select at the
// same delays, besides −1 and the int16 extremes. A body that over-reads dies
// here with SIGSEGV instead of passing silently on whatever the heap had
// next; every body must also equal the twin.
func TestF64KernelRowsFlushAgainstGuardPage(t *testing.T) {
	v := newVerdicts(kernelRoutes())
	var b builder
	for _, a := range [][2]int{{8, 1}, {4, 4}, {17, 1}, {16, 16}} {
		for _, n := range []int{1, 9, 40} {
			c := b.build(t, kshape{NX: a[0], NY: a[1], NTh: 7, NPh: 5, NDep: 2, Win: n, Shift: -1, Seed: 13})
			var releases []func()
			for d, buf := range c.bufs {
				row, release := guarded[float64](t, n)
				releases = append(releases, release)
				copy(row, buf.Samples)
				c.bufs[d] = rf.EchoBuffer{Samples: row}
			}
			cases := []func(v int) int{
				func(int) int { return n - 1 },     // narrow at the end
				func(v int) int { return n - v%2 }, // gather at the end
				func(int) int { return -1 },
				func(int) int { return -32768 },
				func(int) int { return 32767 },
			}
			if n >= 16 {
				cases = append(cases, func(v int) int { return n - 1 - 15*(v%2) }) // wide at the end
			}
			blk, nE := c.blks[0], len(c.bufs)
			for _, delay := range cases {
				for i := range blk {
					blk[i] = int16(delay(i / nE))
				}
				c.check(t, v, famF64)
			}
			for _, release := range releases {
				release()
			}
		}
	}
	v.report(t)
}

// TestF64KernelDelaysFlushAgainstGuardPage runs delaysAgainstGuardPage on
// planes that leave a partial last tile, apertures with a short last
// element group, and delays the tile-native body takes, narrow and wide:
// the SSE2 body reads the filled block's last group of voxel rows up to
// their final delay, and the tile-native body its last record.
func TestF64KernelDelaysFlushAgainstGuardPage(t *testing.T) {
	v := newVerdicts(kernelRoutes())
	var b builder
	for _, a := range [][2]int{{1, 1}, {3, 3}, {17, 1}, {12, 12}, {16, 16}} {
		for _, pl := range [][2]int{{7, 5}, {4, 4}} {
			for _, spread := range []int{7, 15} {
				c := b.build(t, kshape{NX: a[0], NY: a[1], NTh: pl[0], NPh: pl[1], NDep: 2, Win: 200, Shift: -1, Seed: 14})
				nE := len(c.bufs)
				for i := range c.blks[0] {
					c.blks[0][i] = int16(50 + i%nE%30 + spread*(i/nE%2))
				}
				delaysAgainstGuardPage(t, v, c, famF64)
			}
		}
	}
	v.report(t)
}
