package xdcr

import (
	"math"
	"testing"
	"testing/quick"

	"ultrabeam/internal/geom"
)

const pitch = 0.385e-3 / 2 // λ/2 at 4 MHz in tissue

func TestArrayGeometry(t *testing.T) {
	a := NewArray(100, 100, pitch)
	if a.Elements() != 10000 {
		t.Errorf("Elements = %d", a.Elements())
	}
	// Aperture ≈ 99 pitches ≈ 19.06 mm (paper quotes d = 50λ = 19.25 mm for
	// 100 elements including element width; center-to-center is (N-1)·pitch).
	if w := a.Width(); math.Abs(w-99*pitch) > 1e-15 {
		t.Errorf("Width = %v", w)
	}
	// Centering: symmetric extreme coordinates.
	if x0, xN := a.ElementX(0), a.ElementX(99); math.Abs(x0+xN) > 1e-18 {
		t.Errorf("not centered: %v vs %v", x0, xN)
	}
	if p := a.ElementPos(0, 0); p.Z != 0 {
		t.Error("elements must lie in z=0 plane")
	}
}

func TestArrayCenterElementNearOrigin(t *testing.T) {
	a := NewArray(99, 99, pitch) // odd count has an exact center element
	if p := a.ElementPos(49, 49); p.Norm() > 1e-18 {
		t.Errorf("center element at %v", p)
	}
}

func TestIndexElemRoundTrip(t *testing.T) {
	a := NewArray(100, 100, pitch)
	f := func(raw uint16) bool {
		d := int(raw) % a.Elements()
		i, j := a.Elem(d)
		return a.Index(i, j) == d && i >= 0 && i < a.NX && j >= 0 && j < a.NY
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid array")
		}
	}()
	NewArray(0, 10, pitch)
}

func TestDirectivityCone(t *testing.T) {
	d := Directivity{MaxAngle: geom.Radians(45)}
	pos := geom.Vec3{}
	if !d.Accepts(pos, geom.Vec3{Z: 0.1}) {
		t.Error("on-axis point must be accepted")
	}
	if !d.Accepts(pos, geom.Vec3{X: 0.099, Z: 0.1}) {
		t.Error("44.7° off-axis must be accepted at 45° cone")
	}
	if d.Accepts(pos, geom.Vec3{X: 0.2, Z: 0.1}) {
		t.Error("63° off-axis must be rejected at 45° cone")
	}
	// Shifted element: acceptance depends on relative direction.
	el := geom.Vec3{X: 0.01}
	if !d.Accepts(el, geom.Vec3{X: 0.01, Z: 0.05}) {
		t.Error("point straight above shifted element must be accepted")
	}
}

func TestDirectivityWeight(t *testing.T) {
	d := Directivity{MaxAngle: geom.Radians(60), Exponent: 1}
	pos := geom.Vec3{}
	if w := d.Weight(pos, geom.Vec3{Z: 1}); w != 1 {
		t.Errorf("on-axis weight = %v", w)
	}
	w45 := d.Weight(pos, geom.Vec3{X: 1, Z: 1})
	if math.Abs(w45-math.Cos(math.Pi/4)) > 1e-12 {
		t.Errorf("45° weight = %v", w45)
	}
	if w := d.Weight(pos, geom.Vec3{X: 10, Z: 1}); w != 0 {
		t.Errorf("outside-cone weight = %v", w)
	}
	flat := Directivity{MaxAngle: geom.Radians(60)}
	if w := flat.Weight(pos, geom.Vec3{X: 1, Z: 1}); w != 1 {
		t.Errorf("flat in-cone weight = %v", w)
	}
}

func TestOmniDirectivity(t *testing.T) {
	d := OmniDirectivity()
	// Even a point behind the array is accepted.
	if !d.Accepts(geom.Vec3{}, geom.Vec3{Z: -1}) {
		t.Error("omni must accept everything")
	}
	// Degenerate zero-distance direction.
	if !d.Accepts(geom.Vec3{}, geom.Vec3{}) {
		t.Error("zero vector treated as on-axis")
	}
}

func TestWindowEndpointsAndSymmetry(t *testing.T) {
	n := 64
	for _, w := range []Window{Rect, Hann, Hamming, Blackman, Tukey25} {
		for i := 0; i < n; i++ {
			c := w.Coeff(i, n)
			if c < -1e-12 || c > 1+1e-12 {
				t.Errorf("%v coeff[%d] = %v out of [0,1]", w, i, c)
			}
			sym := w.Coeff(n-1-i, n)
			if math.Abs(c-sym) > 1e-12 {
				t.Errorf("%v not symmetric at %d: %v vs %v", w, i, c, sym)
			}
		}
	}
	if Hann.Coeff(0, n) > 1e-12 {
		t.Error("hann must vanish at edge")
	}
	if math.Abs(Hamming.Coeff(0, n)-0.08) > 1e-12 {
		t.Error("hamming edge must be 0.08")
	}
	if Tukey25.Coeff(32, n) != 1 {
		t.Error("tukey flat top must be 1")
	}
}

func TestWindowDegenerate(t *testing.T) {
	for _, w := range []Window{Rect, Hann, Hamming, Blackman, Tukey25} {
		if w.Coeff(0, 1) != 1 {
			t.Errorf("%v single-tap window must be 1", w)
		}
	}
}

func TestWindowString(t *testing.T) {
	names := map[Window]string{Rect: "rect", Hann: "hann", Hamming: "hamming",
		Blackman: "blackman", Tukey25: "tukey25"}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("%d.String() = %q", int(w), w.String())
		}
	}
	if Window(9).String() != "Window(9)" {
		t.Error("unknown window should self-describe")
	}
}

func TestApodization2DSeparable(t *testing.T) {
	nx, ny := 8, 4
	ap := Apodization2D(Hann, nx, ny)
	if len(ap) != nx*ny {
		t.Fatalf("len = %d", len(ap))
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			want := Hann.Coeff(i, nx) * Hann.Coeff(j, ny)
			if math.Abs(ap[j*nx+i]-want) > 1e-12 {
				t.Fatalf("ap[%d,%d] = %v want %v", i, j, ap[j*nx+i], want)
			}
		}
	}
}
