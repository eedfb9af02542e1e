package scan

import (
	"math"
	"testing"

	"ultrabeam/internal/geom"
)

func testVolume() Volume {
	return NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 8, 4, 16)
}

func TestVolumeCounts(t *testing.T) {
	v := testVolume()
	if v.Points() != 8*4*16 {
		t.Errorf("Points = %d", v.Points())
	}
}

func TestPaperVolumeDimensions(t *testing.T) {
	v := NewVolume(geom.Radians(73), geom.Radians(73), 500*0.385e-3, 128, 128, 1000)
	if v.Points() != 128*128*1000 {
		t.Errorf("paper volume points = %d", v.Points())
	}
	if math.Abs(geom.Degrees(v.Theta.Max)-36.5) > 1e-12 {
		t.Errorf("theta max = %v°", geom.Degrees(v.Theta.Max))
	}
	if math.Abs(v.Depth.Max-0.1925) > 1e-12 {
		t.Errorf("depth max = %v", v.Depth.Max)
	}
}

func TestFocalPointOnAxis(t *testing.T) {
	v := NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 129, 129, 10)
	// Middle grid node of an odd grid is exactly θ=φ=0.
	p := v.FocalPoint(64, 64, 9)
	if math.Abs(p.X) > 1e-15 || math.Abs(p.Y) > 1e-15 {
		t.Errorf("center line of sight = %v", p)
	}
	if math.Abs(p.Z-0.1925) > 1e-12 {
		t.Errorf("deepest on-axis z = %v", p.Z)
	}
}

func TestWalkVisitsAllPointsOnce(t *testing.T) {
	v := testVolume()
	for _, o := range []Order{ScanlineOrder, NappeOrder} {
		seen := make(map[Index]int)
		v.Walk(o, func(ix Index) { seen[ix]++ })
		if len(seen) != v.Points() {
			t.Fatalf("%v order visited %d distinct points, want %d", o, len(seen), v.Points())
		}
		for ix, n := range seen {
			if n != 1 {
				t.Fatalf("%v order visited %v %d times", o, ix, n)
			}
		}
	}
}

func TestWalkOrderSequence(t *testing.T) {
	v := testVolume()
	var first, second Index
	i := 0
	v.Walk(NappeOrder, func(ix Index) {
		if i == 0 {
			first = ix
		} else if i == 1 {
			second = ix
		}
		i++
	})
	if first.Depth != 0 || second.Depth != 0 {
		t.Error("nappe order must exhaust a depth before moving on")
	}
	i = 0
	v.Walk(ScanlineOrder, func(ix Index) {
		if i == 1 {
			second = ix
		}
		i++
	})
	if second.Depth != 1 || second.Theta != 0 || second.Phi != 0 {
		t.Errorf("scanline order second point = %+v", second)
	}
}

func TestLinearIndexBijective(t *testing.T) {
	v := testVolume()
	seen := make([]bool, v.Points())
	v.Walk(NappeOrder, func(ix Index) {
		l := v.Linear(ix)
		if l < 0 || l >= v.Points() {
			t.Fatalf("linear index %d out of range", l)
		}
		if seen[l] {
			t.Fatalf("linear index %d repeated", l)
		}
		seen[l] = true
	})
}

func TestDepthLocality(t *testing.T) {
	v := testVolume()
	nappe := v.DepthLocality(NappeOrder)
	scanline := v.DepthLocality(ScanlineOrder)
	if nappe != v.Depth.N-1 {
		t.Errorf("nappe depth changes = %d, want %d", nappe, v.Depth.N-1)
	}
	// A scanline sweep re-walks the whole depth axis per line.
	if want := v.Theta.N*v.Phi.N*v.Depth.N - 1; scanline != want {
		t.Errorf("scanline depth changes = %d, want %d", scanline, want)
	}
	if scanline <= nappe {
		t.Error("scanline order must have strictly worse depth locality")
	}
}

func TestOrderString(t *testing.T) {
	if ScanlineOrder.String() != "scanline" || NappeOrder.String() != "nappe" {
		t.Error("order names")
	}
	if Order(7).String() != "Order(7)" {
		t.Error("unknown order should self-describe")
	}
}

func TestVolumeString(t *testing.T) {
	s := testVolume().String()
	if s == "" {
		t.Error("empty description")
	}
}
