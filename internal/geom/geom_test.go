package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecAlgebra(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Add(b); got != (Vec3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Vec3{1, 1, 1}).Dist(Vec3{1, 1, 2}); got != 1 {
		t.Errorf("Dist = %v", got)
	}
}

func TestDegreesRadians(t *testing.T) {
	if !almost(Degrees(math.Pi), 180, 1e-12) {
		t.Error("Degrees(pi) != 180")
	}
	if !almost(Radians(90), math.Pi/2, 1e-12) {
		t.Error("Radians(90) != pi/2")
	}
}

func TestSphericalOnAxis(t *testing.T) {
	// θ = φ = 0 must land on the z axis at distance r.
	p := SphericalToCartesian(0.1, 0, 0)
	if !almost(p.X, 0, 1e-15) || !almost(p.Y, 0, 1e-15) || !almost(p.Z, 0.1, 1e-15) {
		t.Errorf("on-axis point = %v", p)
	}
}

func TestSphericalPreservesRange(t *testing.T) {
	// |S| must equal r for any steering, the property the paper's reference-
	// point construction R relies on (r := |RO| = |SO|).
	for _, theta := range []float64{-0.6, -0.2, 0, 0.33, 0.637} {
		for _, phi := range []float64{-0.6, 0, 0.25, 0.637} {
			p := SphericalToCartesian(0.05, theta, phi)
			if !almost(p.Norm(), 0.05, 1e-15) {
				t.Errorf("|S(θ=%v, φ=%v)| = %v, want 0.05", theta, phi, p.Norm())
			}
		}
	}
}

func TestSphericalRoundTrip(t *testing.T) {
	f := func(rRaw, thRaw, phRaw uint16) bool {
		r := 0.001 + float64(rRaw)/65535*0.2
		theta := (float64(thRaw)/65535 - 0.5) * Radians(73)
		phi := (float64(phRaw)/65535 - 0.5) * Radians(73)
		p := SphericalToCartesian(r, theta, phi)
		// Eq. (5) inverted: r = |p|, φ = asin(y/r), θ = atan2(x, z).
		r2 := p.Norm()
		return almost(r2, r, 1e-12) && almost(math.Atan2(p.X, p.Z), theta, 1e-9) && almost(math.Asin(p.Y/r2), phi, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSymmetricGrid(t *testing.T) {
	g := NewSymmetricGrid(Radians(36.5), 128)
	if !almost(g.At(0), -Radians(36.5), 1e-15) {
		t.Errorf("first = %v", Degrees(g.At(0)))
	}
	if !almost(g.At(127), Radians(36.5), 1e-15) {
		t.Errorf("last = %v", Degrees(g.At(127)))
	}
	// Symmetry: g.At(i) == -g.At(N-1-i), which TABLESTEER's cosφ folding uses.
	for i := 0; i < g.N; i++ {
		if !almost(g.At(i), -g.At(g.N-1-i), 1e-12) {
			t.Fatalf("grid not symmetric at %d", i)
		}
	}
}

func TestDepthGrid(t *testing.T) {
	g := NewDepthGrid(0.1925, 1000)
	if g.At(0) <= 0 {
		t.Error("first depth must be positive")
	}
	if !almost(g.At(999), 0.1925, 1e-15) {
		t.Errorf("last depth = %v", g.At(999))
	}
	if g.N != 1000 {
		t.Errorf("N = %d", g.N)
	}
}

func TestGridStepValuesContains(t *testing.T) {
	g := Grid{Min: 0, Max: 10, N: 11}
	if g.Step() != 1 {
		t.Errorf("Step = %v", g.Step())
	}
	vals := g.Values()
	if len(vals) != 11 || vals[3] != 3 {
		t.Errorf("Values = %v", vals)
	}
	if !g.Contains(5) || g.Contains(11) || g.Contains(-1) {
		t.Error("Contains misbehaves")
	}
	one := Grid{Min: 4, Max: 4, N: 1}
	if one.At(0) != 4 || one.Step() != 0 {
		t.Error("degenerate grid")
	}
}

func TestVecString(t *testing.T) {
	s := Vec3{0.001, 0, -0.0005}.String()
	if s != "(1.000, 0.000, -0.500) mm" {
		t.Errorf("String = %q", s)
	}
}
