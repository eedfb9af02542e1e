// Package scan models the imaging volume of the paper: the focal-point grid
// (θ × φ × depth = 128 × 128 × 1000 in Table I) and the two equivalent
// beamforming iteration orders of Algorithm 1 — scanline-by-scanline and
// nappe-by-nappe. A nappe is the set of focal points at constant distance
// from the origin (a spherical shell sector); sweeping nappe-by-nappe is the
// order that makes TABLESTEER's delay-table walking sequential.
package scan

import (
	"fmt"

	"ultrabeam/internal/geom"
)

// Volume is the discretized imaging volume in scan coordinates.
type Volume struct {
	Theta geom.Grid // azimuth steering angles (radians)
	Phi   geom.Grid // elevation steering angles (radians)
	Depth geom.Grid // focal ranges r = |S−O| (meters)
}

// NewVolume builds the grid for a symmetric field of view of totalTheta ×
// totalPhi (radians, full opening angles) down to maxDepth meters.
func NewVolume(totalTheta, totalPhi, maxDepth float64, nTheta, nPhi, nDepth int) Volume {
	return Volume{
		Theta: geom.NewSymmetricGrid(totalTheta/2, nTheta),
		Phi:   geom.NewSymmetricGrid(totalPhi/2, nPhi),
		Depth: geom.NewDepthGrid(maxDepth, nDepth),
	}
}

// Points returns the total focal-point count |V|.
func (v Volume) Points() int { return v.Theta.N * v.Phi.N * v.Depth.N }

// FocalPoint returns the Cartesian position of grid node (it, ip, id) via
// the Eq. (5) parametrization.
func (v Volume) FocalPoint(it, ip, id int) geom.Vec3 {
	return geom.SphericalToCartesian(v.Depth.At(id), v.Theta.At(it), v.Phi.At(ip))
}

// String summarizes the volume for reports.
func (v Volume) String() string {
	return fmt.Sprintf("%d×%d×%d focal points, θ∈[%.1f°,%.1f°], φ∈[%.1f°,%.1f°], depth≤%.1f mm",
		v.Theta.N, v.Phi.N, v.Depth.N,
		geom.Degrees(v.Theta.Min), geom.Degrees(v.Theta.Max),
		geom.Degrees(v.Phi.Min), geom.Degrees(v.Phi.Max),
		v.Depth.Max*1e3)
}

// Index identifies one focal point by its grid coordinates.
type Index struct {
	Theta, Phi, Depth int
}

// Linear returns the canonical dense linear index (depth-major, then θ,
// then φ fastest) used for output volumes.
func (v Volume) Linear(ix Index) int {
	return (ix.Depth*v.Theta.N+ix.Theta)*v.Phi.N + ix.Phi
}

// Order is a beamforming sweep order from Algorithm 1 of the paper.
type Order int

const (
	// ScanlineOrder fixes a line of sight (θ, φ) and walks all depths before
	// moving to the next line (traditional beamformers).
	ScanlineOrder Order = iota
	// NappeOrder fixes a depth and walks all (θ, φ) before moving deeper,
	// "optimizing the consumption of the data coming from the probe elements
	// and minimizing table walking".
	NappeOrder
)

func (o Order) String() string {
	switch o {
	case ScanlineOrder:
		return "scanline"
	case NappeOrder:
		return "nappe"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// Walk invokes fn for every focal point of the volume in the given order.
// It is the executable form of Algorithm 1: both orders visit exactly the
// same |V| points, only the sequence differs.
func (v Volume) Walk(o Order, fn func(Index)) {
	switch o {
	case NappeOrder:
		for id := 0; id < v.Depth.N; id++ {
			for it := 0; it < v.Theta.N; it++ {
				for ip := 0; ip < v.Phi.N; ip++ {
					fn(Index{Theta: it, Phi: ip, Depth: id})
				}
			}
		}
	default: // ScanlineOrder
		for it := 0; it < v.Theta.N; it++ {
			for ip := 0; ip < v.Phi.N; ip++ {
				for id := 0; id < v.Depth.N; id++ {
					fn(Index{Theta: it, Phi: ip, Depth: id})
				}
			}
		}
	}
}

// DepthLocality quantifies table-walk locality for a sweep order: it returns
// the total number of depth-slice changes encountered while walking the
// volume. A nappe-by-nappe walk changes slice only Depth.N−1 times; a
// scanline walk changes slice at every single point. This is the quantity
// behind the paper's observation that a nappe beamformer "accesses a
// constant-depth slice of the delay table intensively before moving to the
// next slice" (§V-B).
func (v Volume) DepthLocality(o Order) int {
	changes := 0
	last := -1
	v.Walk(o, func(ix Index) {
		if ix.Depth != last {
			if last != -1 {
				changes++
			}
			last = ix.Depth
		}
	})
	return changes
}
