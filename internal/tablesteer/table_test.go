package tablesteer

import (
	"math"
	"testing"
	"testing/quick"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

var conv = delay.Converter{C: 1540, Fs: 32e6}

// paperConfig is the full Table I geometry with the 18-bit formats.
func paperConfig() Config {
	ref, corr := Bits18Config()
	return Config{
		Vol:     scan.NewVolume(geom.Radians(73), geom.Radians(73), 500*0.385e-3, 128, 128, 1000),
		Arr:     xdcr.NewArray(100, 100, 0.385e-3/2),
		Conv:    conv,
		RefFmt:  ref,
		CorrFmt: corr,
	}
}

// smallConfig keeps table builds fast for unit tests; odd grids put an
// exactly-unsteered line of sight and a center element on the lattice.
func smallConfig() Config {
	ref, corr := Bits18Config()
	return Config{
		Vol:     scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 17, 17, 40),
		Arr:     xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv:    conv,
		RefFmt:  ref,
		CorrFmt: corr,
	}
}

func TestFoldIndexEven(t *testing.T) {
	// 16 elements: indices 0..15 at ±0.5..±7.5 pitch; fold pairs i and 15−i.
	n := 16
	for i := 0; i < n; i++ {
		if foldIndex(i, n) != foldIndex(n-1-i, n) {
			t.Errorf("foldIndex(%d) != foldIndex(%d)", i, n-1-i)
		}
		if q := foldIndex(i, n); q < 0 || q >= foldedDim(n) {
			t.Errorf("foldIndex(%d) = %d out of range", i, q)
		}
	}
	if foldedDim(n) != 8 {
		t.Errorf("foldedDim(16) = %d", foldedDim(n))
	}
	if foldIndex(8, 16) != 0 || foldIndex(7, 16) != 0 || foldIndex(15, 16) != 7 {
		t.Error("even fold mapping wrong")
	}
}

func TestFoldIndexOdd(t *testing.T) {
	n := 15
	if foldedDim(n) != 8 {
		t.Errorf("foldedDim(15) = %d", foldedDim(n))
	}
	if foldIndex(7, 15) != 0 || foldIndex(0, 15) != 7 || foldIndex(14, 15) != 7 {
		t.Error("odd fold mapping wrong")
	}
}

func TestFoldSourceRoundTrip(t *testing.T) {
	f := func(qRaw, parity uint8) bool {
		n := 16
		if parity%2 == 1 {
			n = 17
		}
		q := int(qRaw) % foldedDim(n)
		return foldIndex(foldSource(q, n), n) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldPreservesAbsCoordinate(t *testing.T) {
	// Elements folded together must sit at mirrored coordinates.
	a := xdcr.NewArray(100, 100, 0.385e-3/2)
	for i := 0; i < 100; i++ {
		mirror := 99 - i
		if foldIndex(i, 100) != foldIndex(mirror, 100) {
			t.Fatalf("fold mismatch at %d", i)
		}
		if math.Abs(math.Abs(a.ElementX(i))-math.Abs(a.ElementX(mirror))) > 1e-15 {
			t.Fatalf("mirror coordinates differ at %d", i)
		}
	}
}

func TestRefTablePaperScale(t *testing.T) {
	// §V-A: "only 50×50×1000 = 2.5×10⁶ elements need to be stored";
	// §V-B: "total storage is 2.5×10⁶ × 18 bits = 45 Mb".
	tbl := BuildRefTable(paperConfig())
	if tbl.Entries() != 2_500_000 {
		t.Errorf("entries = %d, want 2.5e6", tbl.Entries())
	}
	if mb := float64(tbl.StorageBits()) / 1e6; math.Abs(mb-45) > 0.01 {
		t.Errorf("storage = %.2f Mb, want 45", mb)
	}
	if tbl.SatCount != 0 {
		t.Errorf("%d reference entries saturated u13.5", tbl.SatCount)
	}
}

func TestRefTableValuesMatchGeometry(t *testing.T) {
	cfg := smallConfig()
	tbl := BuildRefTable(cfg)
	for _, tc := range [][3]int{{0, 0, 0}, {3, 5, 20}, {7, 7, 39}} {
		qx, qy, d := tc[0], tc[1], tc[2]
		r := cfg.Vol.Depth.At(d)
		xa := math.Abs(cfg.Arr.ElementX(foldSource(qx, cfg.Arr.NX)))
		ya := math.Abs(cfg.Arr.ElementY(foldSource(qy, cfg.Arr.NY)))
		want := conv.MetersToSamples(r + math.Sqrt(r*r+xa*xa+ya*ya))
		if got := tbl.At(qx, qy, d); math.Abs(got-want) > 1e-9 {
			t.Errorf("At(%d,%d,%d) = %v, want %v", qx, qy, d, got, want)
		}
		// Quantized word within half an LSB of the float value.
		raw := tbl.RawAt(qx, qy, d)
		if math.Abs(math.Ldexp(float64(raw), -cfg.RefFmt.FracBits)-want) > cfg.RefFmt.Resolution() {
			t.Errorf("raw word off at (%d,%d,%d)", qx, qy, d)
		}
	}
}

func TestRefTableSymmetryConsistency(t *testing.T) {
	// The folded table entry must equal the exact delay of all four
	// mirrored elements for an on-axis reference point.
	cfg := smallConfig()
	tbl := BuildRefTable(cfg)
	e := delay.NewExact(cfg.Vol, cfg.Arr, geom.Vec3{}, conv)
	itC, ipC := cfg.Vol.Theta.N/2, cfg.Vol.Phi.N/2 // exactly unsteered (odd grids)
	d := 25
	for _, el := range [][2]int{{2, 3}, {13, 12}, {2, 12}, {13, 3}} {
		want := e.DelaySamples(itC, ipC, d, el[0], el[1])
		got := tbl.At(foldIndex(el[0], 16), foldIndex(el[1], 16), d)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("mirror (%d,%d): %v vs %v", el[0], el[1], got, want)
		}
	}
}

func TestRefTableDirectivityPruning(t *testing.T) {
	// Pruning needs the full aperture (half-diagonal 13.6 mm): shallow
	// on-axis points lie outside the 60° cone of far corner elements.
	ref, corr := Bits18Config()
	cfg := Config{
		Vol:         scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 9, 9, 40),
		Arr:         xdcr.NewArray(100, 100, 0.385e-3/2),
		Conv:        conv,
		RefFmt:      ref,
		CorrFmt:     corr,
		Directivity: DefaultDirectivity(),
	}
	tbl := BuildRefTable(cfg)
	if tbl.PrunedCount == 0 {
		t.Fatal("60° cone should prune shallow off-axis entries")
	}
	// The shallowest nappe must be the most pruned (Fig. 3a cone shape).
	prunedAt := func(d int) int {
		n := 0
		for qy := 0; qy < tbl.QY; qy++ {
			for qx := 0; qx < tbl.QX; qx++ {
				if tbl.Pruned(qx, qy, d) {
					n++
				}
			}
		}
		return n
	}
	if prunedAt(0) <= prunedAt(tbl.Depths-1) {
		t.Errorf("pruning should shrink with depth: %d vs %d",
			prunedAt(0), prunedAt(tbl.Depths-1))
	}
	// Deep on-axis entries are always live.
	if tbl.Pruned(0, 0, tbl.Depths-1) {
		t.Error("deep near-axis entry must not be pruned")
	}
}

func TestNappeSlice(t *testing.T) {
	cfg := smallConfig()
	tbl := BuildRefTable(cfg)
	s := tbl.NappeSlice(10)
	if len(s) != tbl.QX*tbl.QY {
		t.Fatalf("slice len = %d", len(s))
	}
	for qy := 0; qy < tbl.QY; qy++ {
		for qx := 0; qx < tbl.QX; qx++ {
			if s[qy*tbl.QX+qx] != tbl.RawAt(qx, qy, 10) {
				t.Fatalf("slice content mismatch at (%d,%d)", qx, qy)
			}
		}
	}
	// Mutating the returned slice must not corrupt the table.
	s[0] = -1
	if tbl.RawAt(0, 0, 10) == -1 {
		t.Error("NappeSlice aliases the table")
	}
}

func TestFig3aDots(t *testing.T) {
	cfg := smallConfig()
	cfg.Directivity = DefaultDirectivity()
	tbl := BuildRefTable(cfg)
	all := tbl.Fig3aDots(1, 1)
	if live := tbl.Entries() - tbl.PrunedCount; len(all) != live {
		t.Errorf("dots = %d, want live entries %d", len(all), live)
	}
	strided := tbl.Fig3aDots(2, 4)
	if len(strided) >= len(all) {
		t.Error("striding should reduce dot count")
	}
	for _, d := range strided {
		if d[0] < 0 || d[0] >= tbl.QX || d[1] < 0 || d[1] >= tbl.QY || d[2] < 0 || d[2] >= tbl.Depths {
			t.Fatalf("dot %v out of range", d)
		}
	}
}

func TestRefTableOriginOffsetChangesTransmitLeg(t *testing.T) {
	cfg := smallConfig()
	base := BuildRefTable(cfg)
	cfg.OriginZ = -0.005 // virtual source 5 mm behind the array
	shifted := BuildRefTable(cfg)
	d := 20
	// Transmit leg grows by 5 mm → delay grows by ≈ 5 mm·fs/c everywhere.
	wantDelta := conv.MetersToSamples(0.005)
	got := shifted.At(3, 3, d) - base.At(3, 3, d)
	if math.Abs(got-wantDelta) > 1e-9 {
		t.Errorf("origin offset delta = %v samples, want %v", got, wantDelta)
	}
}

func TestRefTableString(t *testing.T) {
	if BuildRefTable(smallConfig()).String() == "" {
		t.Error("empty description")
	}
}

func TestDefaultDirectivityAngle(t *testing.T) {
	d := DefaultDirectivity()
	if math.Abs(geom.Degrees(d.MaxAngle)-60) > 1e-9 {
		t.Errorf("default cone = %v°", geom.Degrees(d.MaxAngle))
	}
}

func TestFormatsMatchPaperWidths(t *testing.T) {
	r18, c18 := Bits18Config()
	if r18.Bits() != 18 || c18.Bits() != 18 {
		t.Error("18-bit config widths wrong")
	}
	if r18 != (fixed.Format{IntBits: 13, FracBits: 5}) {
		t.Error("ref format must be u13.5")
	}
	r14, c14 := Bits14Config()
	if r14.Bits() != 14 || c14.Bits() != 14 {
		t.Error("14-bit config widths wrong")
	}
}
