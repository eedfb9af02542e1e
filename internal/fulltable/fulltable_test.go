package fulltable

import (
	"math"
	"strings"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

var conv = delay.Converter{C: 1540, Fs: 32e6}

func TestPaperAnalytics(t *testing.T) {
	a := PaperAnalytics()
	// §II-B: "the theoretical number of delay values to be calculated is
	// about 164×10⁹".
	if e := a.Entries(); e < 163e9 || e > 165e9 {
		t.Errorf("entries = %.3g, paper says ≈164e9", e)
	}
	// §II-C: "about 2.5×10¹² delay values/s for reconstruction at 15 fps".
	if acc := a.AccessesPerSecond(); acc < 2.4e12 || acc > 2.6e12 {
		t.Errorf("accesses/s = %.3g, paper says ≈2.5e12", acc)
	}
	// 13-bit entries: ≈266 GB of raw table.
	if gb := a.StorageBytes() / 1e9; gb < 250 || gb > 280 {
		t.Errorf("storage = %.0f GB", gb)
	}
	if a.BandwidthBytesPerSec() <= a.StorageBytes() {
		t.Error("bandwidth must exceed one table per second at 15 fps")
	}
	if !strings.Contains(a.String(), "naive table") {
		t.Error("String should describe the baseline")
	}
}

func smallVolume() (scan.Volume, xdcr.Array) {
	return scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 9, 9, 20),
		xdcr.NewArray(8, 8, 0.385e-3/2)
}

func TestBuildMatchesExact(t *testing.T) {
	v, a := smallVolume()
	wide := fixed.Format{IntBits: 14, FracBits: 20}
	tbl, err := Build(v, a, geom.Vec3{}, conv, wide)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Entries() != v.Points()*a.Elements() {
		t.Fatalf("entries = %d", tbl.Entries())
	}
	e := delay.NewExact(v, a, geom.Vec3{}, conv)
	st := delay.Compare(tbl, e, 1)
	if st.MaxAbs > wide.Resolution() {
		t.Errorf("wide-format table deviates by %v samples", st.MaxAbs)
	}
	if tbl.Name() != "fulltable-34b" {
		t.Errorf("Name = %q", tbl.Name())
	}
}

func TestBuildQuantizes13Bit(t *testing.T) {
	v, a := smallVolume()
	tbl, err := Build(v, a, geom.Vec3{}, conv, fixed.U13p0)
	if err != nil {
		t.Fatal(err)
	}
	e := delay.NewExact(v, a, geom.Vec3{}, conv)
	st := delay.Compare(tbl, e, 1)
	// Integer storage: error within half a sample, never more.
	if st.MaxAbs > 0.5+1e-12 {
		t.Errorf("13-bit table error = %v samples", st.MaxAbs)
	}
	if st.MeanAbs < 0.1 || st.MeanAbs > 0.35 {
		t.Errorf("13-bit mean error = %v, expected ≈0.25", st.MeanAbs)
	}
	if tbl.StorageBits() != tbl.Entries()*13 {
		t.Error("storage accounting wrong")
	}
}

func TestBuildRefusesPaperScale(t *testing.T) {
	v := scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 128, 128, 1000)
	a := xdcr.NewArray(100, 100, 0.385e-3/2)
	if _, err := Build(v, a, geom.Vec3{}, conv, fixed.U13p0); err == nil {
		t.Fatal("paper-scale materialization must be refused")
	}
}

func TestTableLayoutConsistent(t *testing.T) {
	v, a := smallVolume()
	tbl, err := Build(v, a, geom.Vec3{}, conv, fixed.Format{IntBits: 14, FracBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	e := delay.NewExact(v, a, geom.Vec3{}, conv)
	// Spot-check scattered coordinates (not just the sweep order).
	for _, tc := range [][5]int{{8, 0, 19, 7, 0}, {0, 8, 0, 0, 7}, {4, 4, 10, 3, 3}} {
		got := tbl.DelaySamples(tc[0], tc[1], tc[2], tc[3], tc[4])
		want := e.DelaySamples(tc[0], tc[1], tc[2], tc[3], tc[4])
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("lookup %v = %v, want %v", tc, got, want)
		}
	}
}

func BenchmarkTableLookup(b *testing.B) {
	v, a := smallVolume()
	tbl, err := Build(v, a, geom.Vec3{}, conv, fixed.U13p0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tbl.DelaySamples(i%9, (i/9)%9, i%20, i%8, (i/8)%8)
	}
}

// TestTableBlockPath holds the materialized table's block fill — the
// nappe-major storage quantized slice for slice — to Index16 of the scalar
// lookup at every coordinate.
func TestTableBlockPath(t *testing.T) {
	v, a := smallVolume()
	tbl, err := Build(v, a, geom.Vec3{}, conv, fixed.Format{IntBits: 14, FracBits: 20})
	if err != nil {
		t.Fatal(err)
	}
	l := tbl.Layout()
	if want := (delay.Layout{NTheta: v.Theta.N, NPhi: v.Phi.N, NX: a.NX, NY: a.NY}); l != want {
		t.Fatalf("Layout = %+v, want %+v", l, want)
	}
	q := make(delay.Block16, l.BlockLen())
	for _, id := range []int{0, v.Depth.N / 2, v.Depth.N - 1} {
		tbl.FillNappe16(id, q)
		for it := 0; it < l.NTheta; it++ {
			for ip := 0; ip < l.NPhi; ip++ {
				for ej := 0; ej < l.NY; ej++ {
					for ei := 0; ei < l.NX; ei++ {
						want := delay.Index16(tbl.DelaySamples(it, ip, id, ei, ej))
						if got := q[l.Index(it, ip, ei, ej)]; got != want {
							t.Fatalf("id=%d (%d,%d,%d,%d): block %d != Index16(scalar) %d",
								id, it, ip, ei, ej, got, want)
						}
					}
				}
			}
		}
	}
	var _ delay.BlockProvider = (*Table)(nil)
}
