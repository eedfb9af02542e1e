//go:build amd64 && !purego

package beamform

import (
	"testing"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// TestI16NoAVX2Route clears the init-time probe — the route an amd64 host
// without AVX2 takes — and holds whole sessions to it: a compound buffer
// batch and a plane batch must come out bit-identical (==) whichever body
// ran, in store mode (transmit 0) and add mode (transmits 1, 2).
func TestI16NoAVX2Route(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("host has no AVX2: the reference is already the only route")
	}
	defer func() { cpufeat.AVX2 = true }()

	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 20)
	cfg.Precision = PrecisionInt16
	txs := delay.SteeredTransmits(3, 0.004, 0.004)
	provs, txBufs := compoundSetup(t, cfg, txs, target)
	win := len(txBufs[0][0].Samples)
	planes := make([][]int16, len(txBufs))
	scales := make([]float32, len(txBufs))
	for i, bufs := range txBufs {
		var err error
		if planes[i], scales[i], err = rf.PlaneI16(bufs, win); err != nil {
			t.Fatal(err)
		}
	}

	run := func(avx2 bool) (fromBufs, fromPlanes *Volume) {
		cpufeat.AVX2 = avx2
		if want := map[bool]string{true: "avx2", false: "ref"}[avx2]; i16KernelBody() != want {
			t.Fatalf("body = %q with the probe at %t", i16KernelBody(), avx2)
		}
		sess, err := New(cfg).NewSessionProviders(provs)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fromBufs, fromPlanes = sess.NewVolume(), sess.NewVolume()
		if err := sess.BeamformBatch([]*Volume{fromBufs}, [][][]rf.EchoBuffer{txBufs}); err != nil {
			t.Fatal(err)
		}
		if err := sess.BeamformBatchPlanesI16([]*Volume{fromPlanes}, win, [][][]int16{planes}, [][]float32{scales}); err != nil {
			t.Fatal(err)
		}
		return fromBufs, fromPlanes
	}
	refBufs, refPlanes := run(false)
	avxBufs, avxPlanes := run(true)
	peak := 0.0
	for i := range refBufs.Data {
		if avxBufs.Data[i] != refBufs.Data[i] || avxPlanes.Data[i] != refPlanes.Data[i] {
			t.Fatalf("voxel %d: avx2 (%v, %v) != ref (%v, %v)", i,
				avxBufs.Data[i], avxPlanes.Data[i], refBufs.Data[i], refPlanes.Data[i])
		}
		if refBufs.Data[i] != refPlanes.Data[i] {
			t.Fatalf("voxel %d: buffer batch %v != plane batch %v", i, refBufs.Data[i], refPlanes.Data[i])
		}
		peak = max(peak, refBufs.Data[i], -refBufs.Data[i])
	}
	if peak == 0 {
		t.Fatal("compound volume is all zero: the comparison proved nothing")
	}
}

// TestFusedSteerNoAVX2Route: with the probe cleared, a TABLESTEER i16
// compound — uncached, so every nappe is fused-eligible — builds no fused
// operand rows, reports the "ref" body and comes out == the AVX2 host's
// fused volume, plane-fed and buffer-fed.
func TestFusedSteerNoAVX2Route(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("host has no AVX2: fill-then-accumulate is already the only route")
	}
	defer func() { cpufeat.AVX2 = true }()
	sc := newSteerCompound(t, 3, PrecisionInt16)
	bufs, planes, scales := sc.frames(t, 2)
	run := func(avx2 bool) []*Volume {
		cpufeat.AVX2 = avx2
		if want := map[bool]string{true: "avx2", false: "ref"}[avx2]; steerKernelBody() != want {
			t.Fatalf("fused steer body = %q with the probe at %t", steerKernelBody(), avx2)
		}
		sess, _ := sc.session(t, true, -2)
		defer sess.Close()
		out := []*Volume{sess.NewVolume(), sess.NewVolume(), sess.NewVolume(), sess.NewVolume()}
		if err := sess.BeamformBatch(out[:2], bufs); err != nil {
			t.Fatal(err)
		}
		if err := sess.BeamformBatchPlanesI16(out[2:], sc.win, planes, scales); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(false)
	if n := sc.rows(); n != 0 {
		t.Fatalf("the no-AVX2 route built %d fused operand rows", n)
	}
	fused := run(true)
	if n := sc.rows(); n != int64(2*sc.depth*len(sc.gens)) {
		t.Fatalf("the AVX2 route built %d fused operand rows, want %d", n, 2*sc.depth*len(sc.gens))
	}
	sameVolumes(t, "fused vs no-AVX2", fused, ref)
}
