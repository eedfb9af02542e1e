//go:build amd64 && !purego

package tablefree

import (
	"testing"
	"unsafe"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
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

// TestLaneNoAVX2Route clears the init-time probe — the route an amd64 host
// without AVX2 takes — and holds whole nappes to it: the served aperture
// and a width with a scalar tail must fill bit-identically (==) whichever
// body ran.
func TestLaneNoAVX2Route(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("host has no AVX2: fixedRow is already the only route")
	}
	defer func() { cpufeat.AVX2 = true }()
	for _, p := range []*Provider{fixedProvider(smallConfig()), fixedProvider(blockSetup().Cfg)} {
		n := p.Layout().BlockLen()
		ref, avx := make(delay.Block16, n), make(delay.Block16, n)
		for id := 0; id < p.Cfg.Vol.Depth.N; id += 3 {
			cpufeat.AVX2 = false
			if fillKernelBody() != "ref" {
				t.Fatalf("body = %q with the probe cleared", fillKernelBody())
			}
			if vec, _, _ := nappeCensus(p, id); vec != 0 {
				t.Fatalf("nappe %d: the lane body took %d voxels with the probe cleared", id, vec)
			}
			p.FillNappe16(id, ref)
			cpufeat.AVX2 = true
			if vec, scalar, _ := nappeCensus(p, id); scalar != 0 {
				t.Fatalf("nappe %d: %d of %d voxels missed the lane body", id, scalar, vec+scalar)
			}
			p.FillNappe16(id, avx)
			for i := range ref {
				if avx[i] != ref[i] {
					t.Fatalf("nappe %d slot %d: avx2 %d != ref %d", id, i, avx[i], ref[i])
				}
			}
		}
	}
}
