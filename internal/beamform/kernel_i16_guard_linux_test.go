//go:build linux

package beamform

import (
	"syscall"
	"testing"
	"unsafe"

	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// flushAgainstGuardPage maps size bytes whose last byte is the last one
// before a PROT_NONE page; release unmaps them.
func flushAgainstGuardPage(t *testing.T, size int) (mem []byte, release func()) {
	t.Helper()
	page := syscall.Getpagesize()
	span := (size + page - 1) / page * page
	all, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(all[span:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return all[span-size : span], func() {
		if err := syscall.Munmap(all); err != nil {
			t.Fatal(err)
		}
	}
}

// TestI16KernelPlaneFlushAgainstGuardPage proves the native bodies' sample
// loads cannot leave the plane: the plane is mapped so that its last
// int16 is the last two bytes before a PROT_NONE page, and the kernel runs
// with every delay clamped into the guard slot — for the aperture's last
// element that is the plane's last int16, the one sample a vector gather
// must never fetch past and the AVX-512 body's window load must end on.
// (Delays of win are a span-0 tile the AVX-512 body takes; the other three
// values are handed back to the AVX2 body. Where the window allows, delays
// alternating between win−40 and win make every group wide, so the second
// half of each 64-word window load ends on the guard slot too.) A body that
// over-reads dies here with SIGSEGV instead of passing silently on whatever
// the heap had next.
func TestI16KernelPlaneFlushAgainstGuardPage(t *testing.T) {
	for _, n := range []struct{ nx, ny int }{{8, 1}, {4, 4}, {17, 1}, {16, 16}} {
		for _, win := range []int{1, 9, 8512} {
			h := newI16Harness(t, n.nx, n.ny, win, xdcr.Rect)
			mem, release := flushAgainstGuardPage(t, len(h.plane)*2)
			h.plane = unsafe.Slice((*int16)(unsafe.Pointer(&mem[0])), len(h.plane))
			h.fillPlane(true)
			for _, d := range []int16{int16(win), -1, 32767, -32768} {
				for i := range h.blk {
					h.blk[i] = d
				}
				h.run(t, "guard-page", 1.0)
			}
			if win > 40 {
				nE := len(h.eng.apod)
				for i := range h.blk {
					h.blk[i] = int16(win - 40*(i/nE%2))
				}
				h.run(t, "guard-page-wide", 1.0)
			}
			h.plane = nil
			release()
		}
	}
}

// TestI16KernelDelaysFlushAgainstGuardPage does the same for the delay
// block and the tile list, which the AVX-512 body reads with masked row
// loads and a look-ahead for its prefetch: the block's last delay and the
// list's last entry each end flush against a PROT_NONE page. The planes
// leave a partial last tile, the apertures a short last element group, and
// the delays are ones the AVX-512 body takes, so its last tile reads the
// last voxel's row up to the final delay.
func TestI16KernelDelaysFlushAgainstGuardPage(t *testing.T) {
	for _, n := range []struct{ nx, ny int }{{1, 1}, {3, 3}, {17, 1}, {12, 12}, {16, 16}} {
		for _, pl := range []struct{ nth, nphi int }{{7, 5}, {4, 4}} {
			h := newI16HarnessFor(t, Config{
				Vol:    scan.NewVolume(geom.Radians(30), geom.Radians(8), 0.02, pl.nth, pl.nphi, 2),
				Arr:    xdcr.NewArray(n.nx, n.ny, 0.385e-3/2),
				Conv:   conv,
				Window: xdcr.Rect,
			}, 200)
			blkMem, releaseBlk := flushAgainstGuardPage(t, len(h.blk)*2)
			h.blk = unsafe.Slice((*int16)(unsafe.Pointer(&blkMem[0])), len(h.blk))
			tiles := h.eng.tiles
			tileMem, releaseTiles := flushAgainstGuardPage(t, len(tiles)*4)
			h.eng.tiles = unsafe.Slice((*int32)(unsafe.Pointer(&tileMem[0])), len(tiles))
			copy(h.eng.tiles, tiles)
			h.fillPlane(true)
			for _, spread := range []int{31, 63} {
				h.fillTileDelays(spread)
				h.run(t, "delay-guard-page", 1.0/32767)
			}
			h.blk, h.eng.tiles = nil, tiles
			releaseBlk()
			releaseTiles()
		}
	}
}
