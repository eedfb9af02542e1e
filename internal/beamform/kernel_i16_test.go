// Tests of the fixed-point i16 kernel beside the conformance matrix
// (conformance_test.go) and the session matrix (session_test.go): its
// operand table and tile walk, the accumulator bound and its int64
// cross-check, the PSNR gates and the per-plane fit rule.
package beamform

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// TestI16KernelBody logs which body accumulateNappe16I16 runs on this
// build and host. CI greps the line, so a runner that silently fell back
// to the reference is visible in the log instead of passing unnoticed.
func TestI16KernelBody(t *testing.T) {
	body := i16KernelBody()
	if body != "avx512" && body != "avx2" && body != "ref" {
		t.Fatalf("unknown i16 kernel body %q", body)
	}
	t.Logf("i16 accumulate body: %s", body)
}

// TestI16NoAVX2Route is the i16 session row of the matrix with both probes
// cleared — the route an amd64 host without AVX2 takes — and on the host's
// route: a 3-transmit compound (store on transmit 0, add on 1 and 2) fed
// as buffers and as planes, through Run and the batch column, == the twin.
func TestI16NoAVX2Route(t *testing.T) { sessionRows(t, "i16", "ref", "host") }

// TestI16NoAVX512Route is the same row with only the AVX-512 probe cleared:
// the AVX2 gather body an AVX2-only host runs.
func TestI16NoAVX512Route(t *testing.T) { sessionRows(t, "i16", "avx2") }

// TestSnakeTiles pins the tile walk: each plane voxel once, consecutive
// voxels neighbours in θ or φ, a partial last tile padded with its last
// voxel, and the plane's last voxel as the list's last entry.
func TestSnakeTiles(t *testing.T) {
	for _, pl := range []struct{ nth, nphi int }{{0, 0}, {1, 1}, {1, 17}, {5, 2}, {4, 4}, {7, 3}, {2, 9}, {33, 33}} {
		n := pl.nth * pl.nphi
		tiles := delay.Layout{NTheta: pl.nth, NPhi: pl.nphi}.SnakeTiles()
		if len(tiles) != (n+15)/16*16 {
			t.Fatalf("%d×%d: %d entries, want %d", pl.nth, pl.nphi, len(tiles), (n+15)/16*16)
		}
		seen := make([]bool, n)
		for i, v := range tiles[:n] {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("%d×%d: entry %d = %d is outside the plane or repeated", pl.nth, pl.nphi, i, v)
			}
			seen[v] = true
			if i > 0 {
				p := tiles[i-1]
				dth, dph := int(v)/pl.nphi-int(p)/pl.nphi, int(v)%pl.nphi-int(p)%pl.nphi
				if dth*dth+dph*dph != 1 {
					t.Fatalf("%d×%d: voxels %d and %d are consecutive in the walk but not neighbours", pl.nth, pl.nphi, p, v)
				}
			}
		}
		for _, v := range tiles[n:] {
			if v != tiles[n-1] {
				t.Fatalf("%d×%d: padding entry %d does not repeat the last voxel %d", pl.nth, pl.nphi, v, tiles[n-1])
			}
		}
		if n > 0 && int(tiles[len(tiles)-1]) != n-1 {
			t.Fatalf("%d×%d: walk ends on %d, not the last voxel %d", pl.nth, pl.nphi, tiles[len(tiles)-1], n-1)
		}
	}
}

// TestI16GatherTableVectorRange pins the split the AVX2 body's memory
// safety rests on: the vector range is whole 8-groups, never reaches the
// aperture's last element, carries a zero high half in every weight dword,
// and together with the scalar tail covers every active element once. It
// also pins the tile body's group masks, pair weights and padded row
// offsets.
func TestI16GatherTableVectorRange(t *testing.T) {
	var b builder
	for _, hann := range []bool{false, true} {
		for _, n := range i16Apertures {
			h := b.build(t, kshape{NX: n[0], NY: n[1], Hann: hann, NTh: 5, NPh: 2, NDep: 3, Win: 9, Shift: -1})
			tab, nE := h.tab, len(h.eng.apod)
			if tab.nVec != (nE-1)/8*8 {
				t.Fatalf("nE=%d: vector range [0,%d) is not the whole 8-groups short of the last element", nE, tab.nVec)
			}
			for j, el := range tab.els {
				d := int(el.idx)
				if (d < tab.nVec) == (j >= tab.tail) {
					t.Fatalf("nE=%d: active element %d vs vector range %d, but the tail starts at els[%d]", nE, d, tab.nVec, tab.tail)
				}
				if tab.wq[d] != uint32(uint16(int16(el.wq))) || int(tab.ro[d]) != d*(tab.win+1) {
					t.Fatalf("nE=%d element %d: table row (%#x, %d) does not spread the packed operands", nE, d, tab.wq[d], tab.ro[d])
				}
			}
			nonZero := 0
			for _, q := range tab.wq {
				if q>>16 != 0 {
					t.Fatalf("nE=%d: weight dword %#x has a non-zero high half", nE, q)
				}
				if q != 0 {
					nonZero++
				}
			}
			if nonZero > len(tab.els) || len(tab.els) != len(h.eng.activeIdx) {
				t.Fatalf("nE=%d: %d non-zero weights, %d table rows, %d active elements", nE, nonZero, len(tab.els), len(h.eng.activeIdx))
			}
			// The tile body's view: one apodization bit per element, none
			// at or past nE, the pair weights in their lanes, and row
			// offsets readable to the end of the last group.
			nG := (nE + 15) / 16
			if len(tab.grp) != nG || len(tab.wpair) != nG*128 || cap(tab.ro) < nG*16 {
				t.Fatalf("nE=%d: %d group masks, %d pair weights, ro capacity %d", nE, len(tab.grp), len(tab.wpair), cap(tab.ro))
			}
			if want := uint16(1<<(nE-(nG-1)*16) - 1); tab.lastLen != want {
				t.Fatalf("nE=%d: last group mask %#x, want %#x", nE, tab.lastLen, want)
			}
			for d := 0; d < nG*16; d++ {
				apod := d < nE && h.eng.apod[d] != 0
				if got := tab.grp[d/16]>>(d%16)&1 == 1; got != apod {
					t.Fatalf("nE=%d element %d: group bit %t, apodized %t", nE, d, got, apod)
				}
				if d >= nE && tab.ro[:nG*16][d] != 0 {
					t.Fatalf("nE=%d: row offset %d past the aperture is %d", nE, d, tab.ro[:nG*16][d])
				}
				var w uint32
				if d < nE {
					w = tab.wq[d]
				}
				pair := tab.wpair[(d/16*8+d%8)*16:][:16]
				for l := d % 16 / 8 * 4; l < 16; l += 8 {
					for _, got := range pair[l : l+4] {
						if got != w {
							t.Fatalf("nE=%d element %d: pair weight %#x, want %#x", nE, d, got, w)
						}
					}
				}
			}
		}
	}
}

// TestI16KernelSaturationExtremes drives the literal worst case of the
// saturation analysis — every sample pinned at ±32767 with its sign
// aligned to its element's quantized weight, so every product adds with
// the same sign — and cross-checks the int32 accumulation against an
// int64 one. If the preShift bound were wrong, the int32 path would wrap
// and diverge from the int64 sum; instead both must agree exactly, and
// the native body must still match the reference bit for bit.
func TestI16KernelSaturationExtremes(t *testing.T) {
	cfg, _, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(30), 0, 0.02, 3, 1, 2)
	eng := New(cfg) // Hann 16×16: 196 active elements
	if !eng.i16OK {
		t.Fatal("psf aperture unexpectedly fails the accumulator bound")
	}
	win := 9
	nE := len(eng.apod)
	plane := make([]int16, nE*(win+1))
	tab := eng.i16GatherTable(win)
	var acc64 int64
	for j, d := range eng.activeIdx {
		s := int16(32767)
		if eng.activeWQ[j] < 0 {
			s = -32767
		}
		// The whole row carries the extreme, so any index hits it.
		for i := 0; i < win; i++ {
			plane[int(d)*(win+1)+i] = s
		}
		acc64 += int64(int32(s) * int32(eng.activeWQ[j]) >> eng.preShift)
	}
	if acc64 > i16AccBound || acc64 < math.MinInt32 {
		t.Fatalf("worst-case sum %d escapes the documented bound %d", acc64, int64(i16AccBound))
	}
	blk := make(delay.Block16, cfg.Vol.Theta.N*cfg.Vol.Phi.N*nE) // all index 0
	row := make([]int32, cfg.Vol.Theta.N*cfg.Vol.Phi.N)
	native := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	ref := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		eng.accumulateNappe16I16(blk, plane, tab, id, native, 1.0, false, row)
		eng.accumulateNappe16I16Ref(blk, plane, tab, id, ref, 1.0, false)
	}
	for i := range ref.Data {
		if ref.Data[i] != float64(acc64) {
			t.Fatalf("voxel %d: int32 path %v != int64 cross-check %d (accumulator wrapped?)",
				i, ref.Data[i], acc64)
		}
		if native.Data[i] != ref.Data[i] {
			t.Fatalf("voxel %d: native %v != ref %v at saturation", i, native.Data[i], ref.Data[i])
		}
	}
}

// TestI16AccumulatorBoundDemotion pins the initI16 escape hatch: an
// aperture whose worst-case sum cannot fit the int32 bound even at the
// maximum shift must set i16OK false (the session then demotes to the
// exact float64 kernel), while every real test aperture fits.
func TestI16AccumulatorBoundDemotion(t *testing.T) {
	huge := &Engine{activeW: make([]float64, 40000)}
	for i := range huge.activeW {
		huge.activeW[i] = 1
	}
	huge.initI16()
	if huge.i16OK {
		t.Error("40000-element unit aperture cannot satisfy the bound, but i16OK is set")
	}
	cfg, _, _ := psfSetup(t)
	eng := New(cfg)
	if !eng.i16OK || eng.preShift > 15 {
		t.Errorf("Table-I-shaped aperture: i16OK=%t preShift=%d", eng.i16OK, eng.preShift)
	}
	worst := int64(0)
	for _, q := range eng.activeWQ {
		a := int64(q)
		if a < 0 {
			a = -a
		}
		worst += a * 32767
	}
	if worst>>eng.preShift > i16AccBound {
		t.Errorf("preShift %d leaves worst case %d above the bound", eng.preShift, worst>>eng.preShift)
	}
	if eng.preShift > 0 && worst>>(eng.preShift-1) <= i16AccBound {
		t.Errorf("preShift %d is not minimal", eng.preShift)
	}
}

// TestPrecisionInt16PSNRGate gates the ADC-native datapath end to end:
// the fixed-point session volume must sit at least 60 dB below the
// float64 golden peak, with 2-byte echo samples.
func TestPrecisionInt16PSNRGate(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 40)
	golden, err := New(cfg).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	c16 := cfg
	c16.Precision = PrecisionInt16
	fixed, err := New(c16).Beamform(exactProvider(cfg), bufs)
	if err != nil {
		t.Fatal(err)
	}
	psnr, err := PeakSignalRatio(golden, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 60 {
		t.Errorf("i16 kernel PSNR = %.1f dB, want ≥ 60", psnr)
	}
	sim, err := Similarity(golden, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if sim < 0.999999 {
		t.Errorf("i16 kernel similarity = %v", sim)
	}
}

// TestPrecisionInt16CompoundPSNR extends the gate to compounding: the
// three-transmit i16 scene's twin, which every i16 case of the session
// matrix equals bit for bit, must reconstruct the float64 compound above
// 60 dB on every frame, each transmit quantized with its own scale
// (sceneFor holds it).
func TestPrecisionInt16CompoundPSNR(t *testing.T) { sceneFor(t, "i16", 3) }

// TestPlaneFitRuleIsPerPlane: the i16 kernel's int32 row offsets index one
// frame×transmit plane at a time, so whether a frame fits is decided per
// plane, from its Shape, in either form. A 16-transmit, 10,000-element,
// window-32,767 compound (5.2 G samples across its planes, 328 M per
// plane) runs the i16 kernel as buffers exactly as it does as planes. The
// buffer form shares one backing window across all 160,000 echo buffers:
// the shape reads only lengths.
func TestPlaneFitRuleIsPerPlane(t *testing.T) {
	const nTx, win = 16, delay.MaxEchoWindow
	eng := New(Config{Arr: xdcr.NewArray(100, 100, 0.385e-3/2), Window: xdcr.Hann, Precision: PrecisionInt16})
	if !eng.i16OK {
		t.Fatal("a 100×100 Hann aperture should meet the int32 accumulator bound")
	}
	elems := eng.Cfg.Arr.Elements()
	samples := make([]float64, win)
	bufs := make([]rf.EchoBuffer, nTx*elems)
	for i := range bufs {
		bufs[i].Samples = samples
	}
	tx := make([][]rf.EchoBuffer, nTx)
	for t := range tx {
		tx[t] = bufs[t*elems : (t+1)*elems]
	}
	bufShape := Frame{Bufs: tx}.Shape()
	if want := (Shape{Transmits: nTx, Elements: elems, Win: win, Uniform: true}); bufShape != want {
		t.Fatalf("buffer shape %+v, want %+v", bufShape, want)
	}
	// The plane form of the same frame differs only in its form flag (a
	// plane frame's Shape reads Elements off len(Planes[0])/(Win+1); 655 MB
	// of plane is not built here).
	planeShape := bufShape
	planeShape.Planes = true
	small := Frame{Planes: [][]int16{make([]int16, 4*(7+1))}, Scales: []float32{1}, Win: 7}
	if got, want := small.Shape(), (Shape{Transmits: 1, Elements: 4, Win: 7, Uniform: true, Planes: true}); got != want {
		t.Fatalf("plane shape %+v, want %+v", got, want)
	}
	bn, bi := eng.datapath(bufShape)
	pn, pi := eng.datapath(planeShape)
	if !bn || !bi || !pn || !pi {
		t.Errorf("buffers pick narrow=%v i16=%v, planes narrow=%v i16=%v; want the i16 kernel for both", bn, bi, pn, pi)
	}
}
