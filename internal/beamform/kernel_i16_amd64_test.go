//go:build amd64 && !purego

package beamform

import (
	"slices"
	"testing"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// i16RouteVolumes runs one 3-transmit compound through a fresh i16 session
// of cfg, as a buffer batch and as a plane batch.
func i16RouteVolumes(t *testing.T, cfg Config, provs []delay.Provider, txBufs [][]rf.EchoBuffer) (fromBufs, fromPlanes *Volume) {
	t.Helper()
	win := len(txBufs[0][0].Samples)
	planes := make([][]int16, len(txBufs))
	scales := make([]float32, len(txBufs))
	for i, bufs := range txBufs {
		var err error
		if planes[i], scales[i], err = rf.PlaneI16(bufs, win); err != nil {
			t.Fatal(err)
		}
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

// i16RouteSetup is the compound the route tests run: a 9×3×20 grid, three
// steered transmits, PrecisionInt16.
func i16RouteSetup(t *testing.T) (Config, []delay.Provider, [][]rf.EchoBuffer) {
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 20)
	cfg.Precision = PrecisionInt16
	provs, txBufs := compoundSetup(t, cfg, delay.SteeredTransmits(3, 0.004, 0.004), target)
	return cfg, provs, txBufs
}

// sameRouteVolumes fails unless the two routes' volumes are == voxel for
// voxel, the buffer batch == the plane batch, and the volume is not all
// zero.
func sameRouteVolumes(t *testing.T, name string, gotBufs, gotPlanes, refBufs, refPlanes *Volume) {
	t.Helper()
	peak := 0.0
	for i := range refBufs.Data {
		if gotBufs.Data[i] != refBufs.Data[i] || gotPlanes.Data[i] != refPlanes.Data[i] {
			t.Fatalf("voxel %d: %s (%v, %v) != (%v, %v)", i, name,
				gotBufs.Data[i], gotPlanes.Data[i], refBufs.Data[i], refPlanes.Data[i])
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

// TestI16NoAVX2Route clears both init-time probes — the route an amd64 host
// without AVX2 takes — and holds whole sessions to it: a compound buffer
// batch and a plane batch must come out bit-identical (==) whichever body
// ran, in store mode (transmit 0) and add mode (transmits 1, 2).
func TestI16NoAVX2Route(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("host has no AVX2: the reference is already the only route")
	}
	avx512 := cpufeat.AVX512
	defer func() { cpufeat.AVX2, cpufeat.AVX512 = true, avx512 }()

	cfg, provs, txBufs := i16RouteSetup(t)
	cpufeat.AVX2, cpufeat.AVX512 = false, false
	if body := i16KernelBody(); body != "ref" {
		t.Fatalf("body = %q with both probes cleared", body)
	}
	refBufs, refPlanes := i16RouteVolumes(t, cfg, provs, txBufs)
	cpufeat.AVX2, cpufeat.AVX512 = true, avx512
	native := i16KernelBody()
	gotBufs, gotPlanes := i16RouteVolumes(t, cfg, provs, txBufs)
	sameRouteVolumes(t, native+" vs ref", gotBufs, gotPlanes, refBufs, refPlanes)
}

// TestI16NoAVX512Route clears only the AVX-512 probe — the route an AVX2-only
// host takes — and holds whole buffer-fed and plane-fed sessions on the AVX2
// gather body == the AVX-512 tile body's.
func TestI16NoAVX512Route(t *testing.T) {
	if !cpufeat.AVX512 {
		t.Skip("host has no AVX-512: the AVX2 body is already the route")
	}
	defer func() { cpufeat.AVX512 = true }()

	cfg, provs, txBufs := i16RouteSetup(t)
	cpufeat.AVX512 = false
	if body := i16KernelBody(); body != "avx2" {
		t.Fatalf("body = %q with the AVX-512 probe cleared", body)
	}
	refBufs, refPlanes := i16RouteVolumes(t, cfg, provs, txBufs)
	cpufeat.AVX512 = true
	gotBufs, gotPlanes := i16RouteVolumes(t, cfg, provs, txBufs)
	sameRouteVolumes(t, "avx512 vs avx2", gotBufs, gotPlanes, refBufs, refPlanes)
}

// eachSteerBody runs f once per fused steer body this host offers, as a
// subtest named after it: with the probes as the host set them, and on an
// AVX-512 host again with the AVX-512 probe cleared, so the AVX2 fused body
// stays tested there.
func eachSteerBody(t *testing.T, f func(t *testing.T)) {
	t.Run(steerKernelBody(), f)
	if cpufeat.AVX512 {
		defer func() { cpufeat.AVX512 = true }()
		cpufeat.AVX512 = false
		t.Run(steerKernelBody(), f)
	}
}

// TestFusedSteerNoAVX2Route: with the probe cleared, a TABLESTEER i16
// compound — uncached, so every nappe is fused-eligible — builds no fused
// operand rows, reports the "ref" body and comes out == the host's fused
// volume, plane-fed and buffer-fed.
func TestFusedSteerNoAVX2Route(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("host has no AVX2: fill-then-accumulate is already the only route")
	}
	defer func() { cpufeat.AVX2 = true }()
	sc := newSteerCompound(t, 3, PrecisionInt16)
	bufs, planes, scales := sc.frames(t, 2)
	host := steerKernelBody()
	run := func(avx2 bool) []*Volume {
		cpufeat.AVX2 = avx2
		if want := map[bool]string{true: host, false: "ref"}[avx2]; steerKernelBody() != want {
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
	// One build per (nappe, transmit) per frame: four frames.
	if n := sc.rows(); n != int64(4*sc.depth*len(sc.gens)) {
		t.Fatalf("the %s route built %d fused operand rows, want %d", host, n, 4*sc.depth*len(sc.gens))
	}
	sameVolumes(t, "fused vs no-AVX2", fused, ref)
}

// TestI16TileAcceptRule walks the AVX-512 body's accept rule across its
// boundaries on the first and the partial last tile of a 7×5 plane: spans
// of 31 and 32 (a narrow and a wide group) and 63 (a 64-sample window) are
// taken and 64 handed back; max == win (the guard slot, inside the
// window) is taken and win+1 handed back; a negative delay is handed back;
// out-of-range delays on an un-apodized element are ignored. Every case
// must also come out == the reference, the handed-back tile through the
// AVX2 body. The fused tile body, fed operands whose indices are the same
// delays (blockSteerOps), must hand back the same tiles and sum the same
// row.
func TestI16TileAcceptRule(t *testing.T) {
	if !cpufeat.AVX512 {
		t.Skip("host has no AVX-512: no tile body to hand tiles back")
	}
	const win = 100
	apertures := []struct {
		nx, ny int
		window xdcr.Window
	}{{3, 3, xdcr.Rect}, {4, 4, xdcr.Hann}, {17, 1, xdcr.Rect}, {12, 12, xdcr.Hann}, {16, 16, xdcr.Hann}}
	for _, ap := range apertures {
		h := newI16HarnessFor(t, Config{
			Vol:    scan.NewVolume(geom.Radians(30), geom.Radians(8), 0.02, 7, 5, 2),
			Arr:    xdcr.NewArray(ap.nx, ap.ny, 0.385e-3/2),
			Conv:   conv,
			Window: ap.window,
		}, win)
		nE, tiles := len(h.eng.apod), h.eng.tiles
		apod, unapod := -1, -1
		for d := nE - 1; d >= 0; d-- {
			if h.eng.apod[d] != 0 {
				apod = d
			} else {
				unapod = d
			}
		}
		cases := []struct {
			name  string
			d     int
			delay func(i int) int // delay of the tile's i-th voxel
			want  int             // tiles handed back
		}{
			{"span-31", apod, func(i int) int { return 20 + 31*(i%2) }, 0},
			{"span-32", apod, func(i int) int { return 20 + 32*(i%2) }, 0},
			{"span-63", apod, func(i int) int { return 20 + 63*(i%2) }, 0},
			{"span-64", apod, func(i int) int { return 20 + 64*(i%2) }, 1},
			{"max-win", apod, func(i int) int { return win - 3*(i%2) }, 0},
			{"max-win+1", apod, func(i int) int { return win + 1 - 3*(i%2) }, 1},
			{"negative", apod, func(i int) int { return -(i % 2) }, 1},
			{"unapodized-out-of-range", unapod, func(i int) int { return [2]int{-32768, 32767}[i%2] }, 0},
		}
		for _, tc := range cases {
			if tc.d < 0 {
				continue // Rect: every element is apodized
			}
			for _, first := range []int{0, len(tiles) - 16} {
				h.fillPlane(true)
				for k := range h.blk {
					h.blk[k] = int16(10 + k%nE%50)
				}
				for i, v := range tiles[first : first+16] {
					h.blk[int(v)*nE+tc.d] = int16(tc.delay(i))
				}
				if got := h.eng.tileRowI16(h.blk, h.plane, h.tab, h.row); got != tc.want {
					t.Fatalf("nE=%d %s on tile %d: %d tiles handed back, want %d", nE, tc.name, first/16, got, tc.want)
				}
				want := slices.Clone(h.row)
				ops, ry := blockSteerOps(h.blk, h.eng.Cfg.Vol.Phi.N, nE)
				route := &steerRoute{ops: ops, offs: h.eng.steerTileOffsets(ops)}
				if got := h.eng.tileSteerRowI16(ry, route, h.plane, h.tab, h.row); got != tc.want {
					t.Fatalf("nE=%d %s on tile %d: the fused body handed back %d tiles, want %d", nE, tc.name, first/16, got, tc.want)
				}
				if !slices.Equal(h.row, want) {
					t.Fatalf("nE=%d %s on tile %d: the fused row differs from the i16 tile body's", nE, tc.name, first/16)
				}
				h.run(t, tc.name, 1.0/32767)
			}
		}
	}
}

// i16HostBodies lists the i16 accumulate bodies this host can run, whatever
// the probes currently select: the AVX-512 tile body (counting the tiles it
// hands back), the AVX2 gather body, and the reference.
func i16HostBodies(e *Engine) []i16Body {
	var bodies []i16Body
	if cpufeat.AVX512 {
		bodies = append(bodies, i16Body{"avx512", func(blk delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, row []int32) int {
			row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
			n := e.tileRowI16(blk, plane, tab, row)
			e.storeRowI16(row, id, out, 1, false)
			return n
		}})
	}
	if cpufeat.AVX2 {
		bodies = append(bodies, i16Body{"avx2", func(blk delay.Block16, plane []int16, tab *i16Table, id int, out *Volume, row []int32) int {
			row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
			e.gatherRowI16(blk, plane, tab, row, 0, len(row))
			e.storeRowI16(row, id, out, 1, false)
			return 0
		}})
	}
	return append(bodies, i16RefBody(e))
}

// blockSteerOps returns fused steer operands whose indices are exactly
// blk's delays, over nPh φ values and nE elements: one XT row per voxel
// holding its delays at binary point 4, XOff the identity, and an all-zero
// ry.
func blockSteerOps(blk delay.Block16, nPh, nE int) (*delay.SteerOperands, []int32) {
	const frac = 4
	ops := &delay.SteerOperands{Frac: frac, Half: 1 << (frac - 1), XT: make([]int32, len(blk)), XOff: make([]int32, len(blk)/nE)}
	for k := range ops.XOff {
		ops.XOff[k] = int32(k * nE)
	}
	for i, d := range blk {
		ops.XT[i] = int32(d) << frac
	}
	return ops, make([]int32, nPh*nE)
}

// steerHostBodies lists the fused steer bodies this host can run, whatever
// the probes currently select: the AVX-512 tile body (counting the tiles it
// hands back) and the AVX2 gather body.
func steerHostBodies(e *Engine) []steerBody {
	var bodies []steerBody
	if cpufeat.AVX512 {
		bodies = append(bodies, steerBody{"avx512", func(ry []int32, r *steerRoute, plane []int16, tab *i16Table, id int, out *Volume, row []int32) int {
			row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
			n := e.tileSteerRowI16(ry, r, plane, tab, row)
			e.storeRowI16(row, id, out, 1, false)
			return n
		}})
	}
	if cpufeat.AVX2 {
		bodies = append(bodies, steerBody{"avx2", func(ry []int32, r *steerRoute, plane []int16, tab *i16Table, id int, out *Volume, row []int32) int {
			row = row[:e.Cfg.Vol.Theta.N*e.Cfg.Vol.Phi.N]
			for k := 0; k < len(row); k += e.Cfg.Vol.Phi.N {
				e.gatherSteerRowI16(ry, r.ops, plane, tab, row, k, k+e.Cfg.Vol.Phi.N)
			}
			e.storeRowI16(row, id, out, 1, false)
			return 0
		}})
	}
	return bodies
}
