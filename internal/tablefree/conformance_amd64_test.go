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
	got := [5]uintptr{unsafe.Offsetof(op.Lo), unsafe.Offsetof(op.LoRaw), unsafe.Offsetof(op.C1), unsafe.Offsetof(op.V0), unsafe.Sizeof(op)}
	if want := [5]uintptr{0, 16, 24, 32, 40}; got != want {
		t.Fatalf("SegOp Lo/LoRaw/C1/V0 offsets and size = %v, the assembly assumes %v", got, want)
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
