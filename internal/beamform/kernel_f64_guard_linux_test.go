//go:build linux

package beamform

import (
	"testing"
	"unsafe"

	"ultrabeam/internal/rf"
	"ultrabeam/internal/xdcr"
)

// TestF64KernelRowsFlushAgainstGuardPage proves the native bodies' echo
// reads cannot leave an element's row: every row is mapped so that its last
// sample is the last eight bytes before a PROT_NONE page, and the delays
// put the tile body's reads at the row end — a narrow window of one sample
// (delays n−1; an unmasked eight-qword load would run seven samples into
// the guard), a wide one of sixteen (n−16 and n−1 alternating; the second
// load's mask ends on the last sample), and a gather (n−1 and n
// alternating: max = n fails the accept rule, and the lane at n must stay
// masked) — besides −1 and the int16 extremes. A body that over-reads dies
// here with SIGSEGV instead of passing silently on whatever the heap had
// next; every body must also come out == the reference.
func TestF64KernelRowsFlushAgainstGuardPage(t *testing.T) {
	for _, a := range []struct{ nx, ny int }{{8, 1}, {4, 4}, {17, 1}, {16, 16}} {
		for _, n := range []int{1, 9, 40} {
			h := newF64Harness(a.nx, a.ny, 7, 5, xdcr.Rect)
			h.win = n
			var releases []func()
			for d := range h.bufs {
				mem, release := flushAgainstGuardPage(t, n*8)
				releases = append(releases, release)
				row := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n)
				for i := range row {
					row[i] = h.sample()
				}
				h.bufs[d] = rf.EchoBuffer{Samples: row}
			}
			nE := len(h.bufs)
			cases := map[string]func(v int) int{
				"narrow-at-end": func(int) int { return n - 1 },
				"gather-at-end": func(v int) int { return n - v%2 },
				"negative":      func(int) int { return -1 },
				"int16-min":     func(int) int { return -32768 },
				"int16-max":     func(int) int { return 32767 },
			}
			if n >= 16 {
				cases["wide-at-end"] = func(v int) int { return n - 1 - 15*(v%2) }
			}
			for name, delay := range cases {
				for i := range h.blk {
					h.blk[i] = int16(delay(i / nE))
				}
				h.run(t, name)
			}
			h.bufs = make([]rf.EchoBuffer, nE)
			for _, release := range releases {
				release()
			}
		}
	}
}

// TestF64KernelDelaysFlushAgainstGuardPage does the same for the delay
// block and the tile list, which the tile body reads with masked row loads
// and a look-ahead for its prefetch: the block's last delay and the list's
// last entry each end flush against a PROT_NONE page. The planes leave a
// partial last tile, the apertures a short last element group, and the
// delays are ones the tile body takes, narrow and wide, so its last tile
// reads the last voxel's row up to the final delay.
func TestF64KernelDelaysFlushAgainstGuardPage(t *testing.T) {
	for _, a := range []struct{ nx, ny int }{{1, 1}, {3, 3}, {17, 1}, {12, 12}, {16, 16}} {
		for _, pl := range []struct{ nth, nphi int }{{7, 5}, {4, 4}} {
			h := newF64Harness(a.nx, a.ny, pl.nth, pl.nphi, xdcr.Rect)
			h.fillRows(200, func(int) int { return 200 })
			blkMem, releaseBlk := flushAgainstGuardPage(t, len(h.blk)*2)
			blk := unsafe.Slice((*int16)(unsafe.Pointer(&blkMem[0])), len(h.blk))
			h.blk = blk
			tiles := h.eng.tiles
			tileMem, releaseTiles := flushAgainstGuardPage(t, len(tiles)*4)
			h.eng.tiles = unsafe.Slice((*int32)(unsafe.Pointer(&tileMem[0])), len(tiles))
			copy(h.eng.tiles, tiles)
			nE := len(h.bufs)
			for _, spread := range []int{7, 15} {
				for i := range h.blk {
					h.blk[i] = int16(50 + i%nE%30 + spread*(i/nE%2))
				}
				h.run(t, "delay-guard-page")
			}
			h.blk, h.eng.tiles = nil, tiles
			releaseBlk()
			releaseTiles()
		}
	}
}
