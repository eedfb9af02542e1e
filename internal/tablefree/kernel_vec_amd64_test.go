//go:build amd64 && !purego

package tablefree

import (
	"testing"
	"unsafe"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/xdcr"
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

// hostBodies lists the fill bodies this host can run, widest first.
func hostBodies() []string {
	var bodies []string
	if cpufeat.AVX512 {
		bodies = append(bodies, "avx512")
	}
	if cpufeat.AVX2 {
		bodies = append(bodies, "avx2")
	}
	return append(bodies, "ref")
}

// useBody sets the probes so that fillKernelBody names body — clearing
// AVX512 for avx2, both for ref — and returns what restores them.
func useBody(body string) (restore func()) {
	avx2, avx512 := cpufeat.AVX2, cpufeat.AVX512
	cpufeat.AVX2 = avx2 && body != "ref"
	cpufeat.AVX512 = avx512 && body == "avx512"
	return func() { cpufeat.AVX2, cpufeat.AVX512 = avx2, avx512 }
}

// routeAgrees fills every third nappe of p twice — once with the probes as
// useBody(off) sets them, where no voxel may reach a lane body that body
// does not run, once with useBody(on), where every voxel must take the
// lanes — and holds the two to == slot for slot.
func routeAgrees(t *testing.T, p *Provider, on, off string) {
	t.Helper()
	n := p.Layout().BlockLen()
	ref, vec := make(delay.Block16, n), make(delay.Block16, n)
	for id := 0; id < p.Cfg.Vol.Depth.N; id += 3 {
		restore := useBody(off)
		if fillKernelBody() != off {
			t.Fatalf("body = %q with the probe cleared, want %q", fillKernelBody(), off)
		}
		cols := laneColumns(p.Cfg.Arr.NX, p.Cfg.Arr.NY)
		plane := make([]int16, p.Layout().VoxelStride())
		x, y := make([]float64, p.Cfg.Arr.NX), make([]float64, p.Cfg.Arr.NY)
		lc := laneCallFor(p, p.FixedDP.Integer())
		eachPlane(p, id, func(k int, v voxel, _, _ []float64) {
			if done, _ := p.vecPlane(plane, v, x, y, lc, 0); done != cols {
				t.Fatalf("nappe %d voxel %d: %d lane columns under %s, want %d", id, k, done, off, cols)
			}
		})
		p.FillNappe16(id, ref)
		restore()
		restore = useBody(on)
		if vec, scalar, _ := nappeCensus(p, id); scalar != 0 {
			t.Fatalf("nappe %d: %d of %d voxels missed the %s body", id, scalar, vec+scalar, on)
		}
		p.FillNappe16(id, vec)
		restore()
		for i := range ref {
			if vec[i] != ref[i] {
				t.Fatalf("nappe %d slot %d: %s %d != %s %d", id, i, on, vec[i], off, ref[i])
			}
		}
	}
}

// TestLaneNoAVX2Route clears the init-time probes — the route an amd64 host
// without AVX2 (and so without AVX-512) takes — and holds whole nappes to
// it: the served aperture and a width with a scalar tail must fill
// bit-identically (==) whichever body ran.
func TestLaneNoAVX2Route(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("host has no AVX2: fixedRow is already the only route")
	}
	on := hostBodies()[0]
	for _, p := range []*Provider{fixedProvider(smallConfig()), fixedProvider(blockSetup().Cfg)} {
		routeAgrees(t, p, on, "ref")
	}
}

// TestLaneNoAVX512Route is TestLaneNoAVX2Route for an AVX2-only host: with
// AVX512 cleared the four-lane body must take exactly the leading NX&^3
// columns of every voxel, and fill == the eight-lane body on the served
// aperture, a plane with a scalar tail (8×5 has none; 13×7 does) and one
// whose last eight-slot group is partial.
func TestLaneNoAVX512Route(t *testing.T) {
	if !cpufeat.AVX512 {
		t.Skip("host has no AVX-512: the four-lane body is already the widest route")
	}
	tail := smallConfig()
	tail.Arr = xdcr.NewArray(13, 7, 0.385e-3/2)
	for _, p := range []*Provider{fixedProvider(smallConfig()), fixedProvider(blockSetup().Cfg), fixedProvider(tail)} {
		routeAgrees(t, p, "avx512", "avx2")
	}
}
