// Package geom provides the 3-D geometry substrate of the beamformer: vector
// algebra, the spherical scan parametrization of Eq. (5) in the paper, and
// uniform angle/depth grids for the imaging volume.
//
// Coordinate convention (paper §V-A): the transducer lies in the z = 0
// plane, the sound origin O at the array center, the z axis points into the
// body. A focal point on the line of sight steered by azimuth θ (in the xz
// plane) and elevation φ is
//
//	S = (r·cosφ·sinθ, r·sinφ, r·cosφ·cosθ)
//
// where r is the distance |S−O|.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or displacement in meters.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v+w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v−w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm2 returns |v|².
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Norm returns the Euclidean length |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Norm2()) }

// Dist returns |v−w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// String formats the vector in millimeters for readable diagnostics.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f) mm", v.X*1e3, v.Y*1e3, v.Z*1e3)
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// SphericalToCartesian implements Eq. (5): the focal point at range r along
// the (θ, φ) line of sight. Angles in radians.
func SphericalToCartesian(r, theta, phi float64) Vec3 {
	cphi, sphi := math.Cos(phi), math.Sin(phi)
	ctheta, stheta := math.Cos(theta), math.Sin(theta)
	return Vec3{
		X: r * cphi * stheta,
		Y: r * sphi,
		Z: r * cphi * ctheta,
	}
}

// Grid is a uniform 1-D sampling of an interval, used for the θ, φ and depth
// axes of the focal-point grid.
type Grid struct {
	Min, Max float64
	N        int
}

// NewSymmetricGrid returns a grid of n points spanning [−half, +half]
// inclusive of both endpoints (n ≥ 2), matching the paper's −θmax..θmax scan.
func NewSymmetricGrid(half float64, n int) Grid { return Grid{Min: -half, Max: half, N: n} }

// NewDepthGrid returns n focal depths covering (0, max]: the k-th point is
// (k+1)·max/n, so the first nappe is one depth step from the origin and the
// last is exactly at max. Avoiding r = 0 keeps the steering math defined.
func NewDepthGrid(max float64, n int) Grid { return Grid{Min: max / float64(n), Max: max, N: n} }

// At returns the i-th sample of the grid.
func (g Grid) At(i int) float64 {
	if g.N == 1 {
		return g.Min
	}
	return g.Min + (g.Max-g.Min)*float64(i)/float64(g.N-1)
}

// Step returns the spacing between adjacent samples.
func (g Grid) Step() float64 {
	if g.N <= 1 {
		return 0
	}
	return (g.Max - g.Min) / float64(g.N-1)
}

// Values materializes all samples.
func (g Grid) Values() []float64 {
	out := make([]float64, g.N)
	for i := range out {
		out[i] = g.At(i)
	}
	return out
}

// Contains reports whether x lies within the closed interval of the grid.
func (g Grid) Contains(x float64) bool { return x >= g.Min-1e-12 && x <= g.Max+1e-12 }
