package delay

import (
	"math"
	"testing"
	"testing/quick"

	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

var conv = Converter{C: 1540, Fs: 32e6}

func smallSetup() (*Exact, scan.Volume, xdcr.Array) {
	v := scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 9, 9, 25)
	a := xdcr.NewArray(16, 16, 0.385e-3/2)
	e := NewExact(v, a, geom.Vec3{}, conv)
	return e, v, a
}

func TestConverterRoundTrips(t *testing.T) {
	if got := conv.SecondsToSamples(1e-6); math.Abs(got-32) > 1e-12 {
		t.Errorf("1 µs = %v samples", got)
	}
	if got := conv.SamplesToSeconds(32); math.Abs(got-1e-6) > 1e-18 {
		t.Errorf("32 samples = %v s", got)
	}
	// λ = c/fc = 0.385 mm must be exactly 8 samples at fs = 8·fc.
	if got := conv.MetersToSamples(0.385e-3); math.Abs(got-8) > 1e-9 {
		t.Errorf("λ = %v samples, want 8", got)
	}
	if got := conv.SamplePeriod(); math.Abs(got-31.25e-9) > 1e-18 {
		t.Errorf("sample period = %v", got)
	}
}

func TestTwoWaySecondsSymmetricGeometry(t *testing.T) {
	o := geom.Vec3{}
	s := geom.Vec3{Z: 0.077} // 77 mm straight ahead
	d := geom.Vec3{}
	// O = D at origin: two-way time is 2·z/c.
	want := 2 * 0.077 / 1540
	if got := TwoWaySeconds(o, s, d, 1540); math.Abs(got-want) > 1e-15 {
		t.Errorf("two-way = %v, want %v", got, want)
	}
}

func TestExactOnAxisDelay(t *testing.T) {
	e, v, a := smallSetup()
	// Center of an odd θ/φ grid is the unsteered line of sight.
	it, ip := v.Theta.N/2, v.Phi.N/2
	id := v.Depth.N - 1
	s := v.FocalPoint(it, ip, id)
	if math.Abs(s.X) > 1e-12 || math.Abs(s.Y) > 1e-12 {
		t.Fatalf("center line of sight isn't on-axis: %v", s)
	}
	// For the element nearest the center, delay ≈ 2r·fs/c.
	ei, ej := a.NX/2, a.NY/2
	got := e.DelaySamples(it, ip, id, ei, ej)
	r := v.Depth.At(id)
	approx := conv.MetersToSamples(2 * r)
	if math.Abs(got-approx) > 1.0 { // element is within half a pitch of center
		t.Errorf("on-axis delay = %v samples, expected ≈ %v", got, approx)
	}
}

func TestExactDecomposition(t *testing.T) {
	e, v, a := smallSetup()
	_ = v
	_ = a
	f := func(itR, ipR, idR, eiR, ejR uint8) bool {
		it := int(itR) % e.Vol.Theta.N
		ip := int(ipR) % e.Vol.Phi.N
		id := int(idR) % e.Vol.Depth.N
		ei := int(eiR) % e.Arr.NX
		ej := int(ejR) % e.Arr.NY
		sum := e.TransmitSamples(it, ip, id) + e.ReceiveSamples(it, ip, id, ei, ej)
		return math.Abs(sum-e.DelaySamples(it, ip, id, ei, ej)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExactDelayMonotoneInDepthOnAxis(t *testing.T) {
	e, v, _ := smallSetup()
	it, ip := v.Theta.N/2, v.Phi.N/2
	prev := -1.0
	for id := 0; id < v.Depth.N; id++ {
		d := e.DelaySamples(it, ip, id, 0, 0)
		if d <= prev {
			t.Fatalf("delay not increasing with depth at id=%d: %v <= %v", id, d, prev)
		}
		prev = d
	}
}

func TestIndexRounding(t *testing.T) {
	if Index(103.49) != 103 || Index(103.5) != 104 || Index(-0.2) != 0 {
		t.Error("Index rounding broken")
	}
}

func TestNewExactPanicsOnBadConverter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewExact(scan.Volume{}, xdcr.Array{NX: 1, NY: 1, Pitch: 1}, geom.Vec3{}, Converter{})
}

func TestStatsAccumulation(t *testing.T) {
	var st Stats
	st.Add(10.0, 10.0) // exact hit
	st.Add(10.6, 10.0) // off by 0.6 → index off by 1
	st.Add(12.0, 10.0) // off by 2 → index off by 2
	if st.N != 3 {
		t.Fatalf("N = %d", st.N)
	}
	if math.Abs(st.MeanAbs-(0+0.6+2)/3) > 1e-12 {
		t.Errorf("MeanAbs = %v", st.MeanAbs)
	}
	if st.MaxAbs != 2 {
		t.Errorf("MaxAbs = %v", st.MaxAbs)
	}
	if st.MaxAbsIndex != 2 || st.OffIndexCount != 2 {
		t.Errorf("index stats: max %d off %d", st.MaxAbsIndex, st.OffIndexCount)
	}
	if math.Abs(st.OffIndexFraction()-2.0/3) > 1e-12 {
		t.Errorf("fraction = %v", st.OffIndexFraction())
	}
}

func TestStatsString(t *testing.T) {
	var st Stats
	st.Add(1, 1)
	if st.String() == "" {
		t.Error("empty string")
	}
}

func TestCompareExactAgainstItself(t *testing.T) {
	e, _, _ := smallSetup()
	st := Compare(e, e, 4)
	if st.N == 0 {
		t.Fatal("no points compared")
	}
	if st.MaxAbs != 0 || st.MaxAbsIndex != 0 {
		t.Errorf("self-comparison must be exact: %v", st.String())
	}
}
