//go:build linux

package beamform

import (
	"syscall"
	"testing"
	"unsafe"

	"ultrabeam/internal/xdcr"
)

// TestI16KernelPlaneFlushAgainstGuardPage proves the native body's dword
// gathers cannot leave the plane: the plane is mapped so that its last
// int16 is the last two bytes before a PROT_NONE page, and the kernel runs
// with every delay clamped into the guard slot — for the aperture's last
// element that is the plane's last int16, the one sample a vector gather
// must never fetch. A body that over-reads dies here with SIGSEGV instead
// of passing silently on whatever the heap had next.
func TestI16KernelPlaneFlushAgainstGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	for _, n := range []struct{ nx, ny int }{{8, 1}, {4, 4}, {17, 1}, {16, 16}} {
		for _, win := range []int{1, 9, 8512} {
			h := newI16Harness(t, n.nx, n.ny, win, xdcr.Rect)
			size := len(h.plane) * 2
			span := (size + page - 1) / page * page
			mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				t.Fatal(err)
			}
			if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
				t.Fatal(err)
			}
			h.plane = unsafe.Slice((*int16)(unsafe.Pointer(&mem[span-size])), len(h.plane))
			h.fillPlane(true)
			for _, d := range []int16{int16(win), -1, 32767, -32768} {
				for i := range h.blk {
					h.blk[i] = d
				}
				h.run(t, "guard-page", 1.0)
			}
			h.plane = nil
			if err := syscall.Munmap(mem); err != nil {
				t.Fatal(err)
			}
		}
	}
}
