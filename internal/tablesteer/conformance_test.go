// The TABLESTEER fill's conformance matrix. FillNappe16 — steerRow on the
// formats narrowProven accepts, the scalar law on the rest — and, where a
// provider offers them, the fused operands (SteerRows and SteerOperands,
// the fused accumulate's inputs, through fusedIndices) must equal the
// scalar law, Index16(DelaySamples) of alignedSum, slot for slot in layout
// order. One shape generator (sshape, the corpus functions,
// FuzzSteerConformance) names the geometry; the twin is computed once per
// nappe and every fill is held to it.
package tablesteer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// sshape is one geometry of the matrix: a Theta°×Phi° sector Depth m deep at
// pitch Pitch mm, sampled at {20, 32, 50} MHz[Fs], in formatPairs[Format],
// on the fixed or the float datapath, from the on-axis transmit or — if
// Derived — the unit derived from it at z = OriginZ; every Stride-th nappe.
type sshape struct {
	NX, NY, NTh, NPh, NDep   int
	Theta, Phi, Depth, Pitch float64
	Fs, Format               int
	Fixed, Derived           bool
	OriginZ                  float64
	Stride                   int
}

func (s sshape) provider(t testing.TB) *Provider {
	t.Helper()
	f := formatPairs[s.Format]
	p := New(Config{
		Vol:    scan.NewVolume(geom.Radians(s.Theta), geom.Radians(s.Phi), s.Depth, s.NTh, s.NPh, s.NDep),
		Arr:    xdcr.NewArray(s.NX, s.NY, s.Pitch*1e-3),
		Conv:   delay.Converter{C: 1540, Fs: []float64{20e6, 32e6, 50e6}[s.Fs]},
		RefFmt: f.ref, CorrFmt: f.corr,
	})
	p.UseFixed = s.Fixed
	if s.Derived {
		q, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: s.OriginZ}})
		if err != nil {
			t.Fatal(err)
		}
		p = q.(*Provider)
	}
	return p
}

// randomShapes draws one geometry per aperture and format pair from seed
// (odd and even axes up to maxAxis, 1×N and N×1 apertures, single-node
// angular axes), and pass turns each into its shapes.
func randomShapes(seed int64, apertures [][2]int, pass func(trial int, s sshape) []sshape) (out []sshape) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < len(apertures)*len(formatPairs); trial++ {
		ap := apertures[trial%len(apertures)]
		out = append(out, pass(trial, sshape{NX: ap[0], NY: ap[1],
			Theta: 20 + 60*rng.Float64(), Phi: 10 + 70*rng.Float64(), Depth: 0.02 + 0.15*rng.Float64(),
			NTh: 1 + rng.Intn(6), NPh: 1 + rng.Intn(6), NDep: 1 + rng.Intn(5), Pitch: 0.1 + 0.3*rng.Float64(),
			Fs: trial % 3, Format: trial / len(apertures)})...)
	}
	return out
}

// fillShapes: every format pair on both datapaths, each followed by a
// derived transmit at an off-origin z — the provider a compound session
// fills from.
func fillShapes() []sshape {
	offsets := []float64{-4e-3, 3e-3, -0.4e-3, 11e-3}
	return randomShapes(15, [][2]int{{1, 7}, {6, 1}, {1, 1}, {5, 4}, {8, 3}, {3, 9}, {16, 16}}, func(trial int, s sshape) (out []sshape) {
		for _, s.Fixed = range []bool{true, false} {
			s.Derived, s.OriginZ = false, 0
			out = append(out, s)
			s.Derived, s.OriginZ = true, offsets[trial%len(offsets)]
			out = append(out, s)
		}
		return out
	})
}

// operandShapes: the fixed datapath of every format pair and its derived
// transmit, up to a 17×16 aperture.
func operandShapes() []sshape {
	return randomShapes(25, [][2]int{{1, 7}, {6, 1}, {1, 1}, {5, 4}, {8, 3}, {3, 9}, {12, 12}, {17, 16}}, func(trial int, s sshape) []sshape {
		s.Fixed = true
		d := s
		d.Derived, d.OriginZ = true, -3e-3+1e-3*float64(trial%5)
		return []sshape{s, d}
	})
}

// servedShapes are the BENCHMARK grids (16×16 over 33×33×100, 12×12 over
// 25×25×80, 73° sectors 500 λ deep) on the 18-bit fixed datapath, from the
// on-axis transmit and the four axial ones; every 25th nappe.
func servedShapes() (out []sshape) {
	lambda := 1540 / 4e6
	for _, g := range [][5]int{{16, 16, 33, 33, 100}, {12, 12, 25, 25, 80}} {
		s := sshape{NX: g[0], NY: g[1], NTh: g[2], NPh: g[3], NDep: g[4], Theta: 73, Phi: 73, Depth: 500 * lambda,
			Pitch: lambda / 2 * 1e3, Fs: 1, Fixed: true, Stride: 25}
		out = append(out, s)
		for _, tx := range delay.AxialTransmits(4, -10*lambda, -30*lambda) {
			s.Derived, s.OriginZ = true, tx.Origin.Z
			out = append(out, s)
		}
	}
	return out
}

// conform holds every provider's fills to the scalar law on nappes 0,
// stride, 2·stride, … and returns the smallest and largest index seen.
func conform(t testing.TB, stride int, provs ...*Provider) (lo, hi int16) {
	t.Helper()
	lo, hi = math.MaxInt16, math.MinInt16
	for _, p := range provs {
		l, ops := p.Layout(), p.SteerOperands()
		name := fmt.Sprintf("%s %d×%d fixed=%t z=%v", p.Name(), l.NX, l.NY, p.UseFixed, p.Cfg.OriginZ)
		twin, got := make(delay.Block16, l.BlockLen()), make(delay.Block16, l.BlockLen())
		for id := 0; id < p.Cfg.Vol.Depth.N; id += max(stride, 1) {
			for it := range l.NTheta {
				for ip := range l.NPhi {
					for ej := range l.NY {
						for ei := range l.NX {
							k := l.Index(it, ip, ei, ej)
							twin[k] = delay.Index16(p.DelaySamples(it, ip, id, ei, ej))
							lo, hi = min(lo, twin[k]), max(hi, twin[k])
						}
					}
				}
			}
			fills := map[string]func(){
				"fill":        func() { p.FillNappe16(id, got) },
				"layout walk": func() { (&delay.ScalarAdapter{P: p, L: l}).FillNappe16(id, got) },
			}
			if ops != nil {
				fills["fused operands"] = func() { fusedIndices(p, ops, id, got) }
			}
			for body, fill := range fills {
				fill()
				for k := range twin {
					if got[k] != twin[k] {
						t.Fatalf("%s id=%d slot %d: %s %d != scalar law %d", name, id, k, body, got[k], twin[k])
					}
				}
			}
		}
	}
	return lo, hi
}

// TestFillsMatchScalarRandomGeometries is the matrix over fillShapes.
func TestFillsMatchScalarRandomGeometries(t *testing.T) {
	for _, s := range fillShapes() {
		conform(t, 1, s.provider(t))
	}
}

// TestSteerOperandsReproduceFill is the matrix over operandShapes: every
// proven format pair must offer fused operands, which then equal the fill
// and the scalar law, and the unproven pairs and the float datapath none.
func TestSteerOperandsReproduceFill(t *testing.T) {
	for _, s := range operandShapes() {
		p := s.provider(t)
		if (p.SteerOperands() != nil) != formatPairs[s.Format].narrow {
			t.Fatalf("%+v: operands offered = %v, want %v (narrowProven)", s, p.SteerOperands() != nil, formatPairs[s.Format].narrow)
		}
		conform(t, 1, p)
		if s.Fixed = false; s.provider(t).SteerOperands() != nil {
			t.Fatalf("%+v: the float datapath offers fused operands", s)
		}
	}
}

// FuzzSteerConformance runs the matrix on one generated geometry, each
// field clamped into the range the corpus draws from. Its seeds are the
// served shapes and every seventh fill shape.
func FuzzSteerConformance(f *testing.F) {
	seeds := servedShapes()
	for k, s := range fillShapes() {
		if k%7 == 0 {
			seeds = append(seeds, s)
		}
	}
	for _, s := range seeds {
		f.Add(uint8(s.NX), uint8(s.NY), uint8(s.NTh), uint8(s.NPh), uint8(s.NDep), s.Theta, s.Phi, s.Depth, s.Pitch,
			uint8(s.Fs), uint8(s.Format), s.Fixed, s.Derived, s.OriginZ, uint8(s.Stride))
	}
	f.Fuzz(func(t *testing.T, nx, ny, nth, nph, ndep uint8, theta, phi, depth, pitch float64, fs, format uint8,
		fixed, derived bool, originZ float64, stride uint8) {
		clamp := func(x, lo, hi float64) float64 {
			if math.IsNaN(x) {
				return lo
			}
			return min(max(x, lo), hi)
		}
		s := sshape{NX: max(int(nx)%33, 1), NY: max(int(ny)%33, 1), NTh: max(int(nth)%34, 1), NPh: max(int(nph)%34, 1),
			NDep: max(int(ndep)%101, 1), Theta: clamp(theta, 1, 80), Phi: clamp(phi, 1, 80), Depth: clamp(depth, 0.01, 0.2),
			Pitch: clamp(pitch, 0.05, 0.5), Fs: int(fs) % 3, Format: int(format) % len(formatPairs), Fixed: fixed,
			Derived: derived, OriginZ: clamp(originZ, -0.02, 0.02)}
		conform(t, max(int(stride), s.NDep/4), s.provider(t))
	})
}
