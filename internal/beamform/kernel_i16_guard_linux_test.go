//go:build linux

package beamform

import (
	"syscall"
	"testing"
	"unsafe"
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

// TestI16KernelPlaneFlushAgainstGuardPage proves the native bodies' sample
// loads cannot leave the plane: the plane is mapped so that its last
// int16 is the last two bytes before a PROT_NONE page, and the kernel runs
// with every delay clamped into the guard slot — for the aperture's last
// element that is the plane's last int16, the one sample a vector gather
// must never fetch past and a tile body's window load must end on.
// (Delays of win are a span-0 tile the tile bodies take; the other three
// values are handed back to the gather bodies. Where the window allows,
// delays alternating between win−40 and win make every group wide, so the
// second half of each 64-word window load ends on the guard slot too.) A
// body that over-reads dies here with SIGSEGV instead of passing silently
// on whatever the heap had next; every body must also equal the twin.
func TestI16KernelPlaneFlushAgainstGuardPage(t *testing.T) {
	v := newVerdicts(kernelRoutes())
	var b builder
	for _, n := range [][2]int{{8, 1}, {4, 4}, {17, 1}, {16, 16}} {
		for _, win := range []int{1, 9, 8512} {
			c := b.build(t, kshape{NX: n[0], NY: n[1], NTh: 5, NPh: 2, NDep: 3, Win: win, Shift: -1, Seed: 11})
			plane, release := guarded[int16](t, len(c.plane))
			c.plane = plane
			c.fillPlane(plane, sDirty)
			blk, nE := c.blks[0], len(c.eng.apod)
			for _, d := range []int16{int16(win), -1, 32767, -32768} {
				for i := range blk {
					blk[i] = d
				}
				c.check(t, v, famI16)
			}
			if win > 40 {
				for i := range blk {
					blk[i] = int16(win - 40*(i/nE%2))
				}
				c.check(t, v, famI16)
			}
			release()
		}
	}
	v.report(t)
}

// delaysAgainstGuardPage checks c with its delay block, the engine's tile
// list and each block's tile-native records, which the tile bodies read
// with masked row loads and a look-ahead for their prefetch, and the
// tile-native bodies record by record up to the last group of the last
// (padded) tile, each ending flush against a PROT_NONE page.
func delaysAgainstGuardPage(t *testing.T, v *verdicts, c *kcase, fams int) {
	blk, releaseBlk := guarded[int16](t, len(c.blks[0]))
	copy(blk, c.blks[0])
	for i := range c.blks {
		c.blks[i] = blk
	}
	tiles := c.eng.tiles
	var releaseTiles func()
	c.eng.tiles, releaseTiles = guarded[int32](t, len(tiles))
	copy(c.eng.tiles, tiles)
	var releaseRecs []func()
	c.recs = func(n int) []byte {
		recs, release := guarded[byte](t, n)
		releaseRecs = append(releaseRecs, release)
		return recs
	}
	c.check(t, v, fams)
	c.eng.tiles, c.recs = tiles, nil
	releaseBlk()
	releaseTiles()
	for _, release := range releaseRecs {
		release()
	}
}

// TestI16KernelDelaysFlushAgainstGuardPage runs delaysAgainstGuardPage on
// planes that leave a partial last tile, apertures with a short last
// element group, and delays the tile bodies take, narrow and wide, so
// their last tile reads the last voxel's row up to the final delay.
func TestI16KernelDelaysFlushAgainstGuardPage(t *testing.T) {
	v := newVerdicts(kernelRoutes())
	var b builder
	for _, n := range [][2]int{{1, 1}, {3, 3}, {17, 1}, {12, 12}, {16, 16}} {
		for _, pl := range [][2]int{{7, 5}, {4, 4}} {
			for _, spread := range []int{31, 63} {
				c := b.build(t, kshape{NX: n[0], NY: n[1], NTh: pl[0], NPh: pl[1], NDep: 2, Win: 200, Shift: -1,
					Delays: dTile, Arg: spread, Samples: sDirty, Seed: 12})
				delaysAgainstGuardPage(t, v, c, famI16)
			}
		}
	}
	v.report(t)
}
