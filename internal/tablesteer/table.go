// Package tablesteer implements the paper's second delay-generation
// architecture (§V): a compact *reference* delay table for the unsteered
// line of sight, "steered" at runtime to any (θ, φ) by adding a
// precomputed tilted-plane correction (first-order Taylor expansion of the
// square root, Eq. 7). The package contains the reference-table builder
// with 4× symmetry folding and directivity pruning (Fig. 3a), the
// correction-coefficient tables (832×10³ entries at Table I scale), the
// fixed-point steering datapath, the steering-error analysis of §VI-A and
// the memory-centric block architecture of Fig. 4.
package tablesteer

import (
	"fmt"
	"math"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// Config assembles a TABLESTEER delay generator.
type Config struct {
	Vol     scan.Volume
	Arr     xdcr.Array
	Conv    delay.Converter
	RefFmt  fixed.Format // reference-delay storage format (u13.5 or u13.1)
	CorrFmt fixed.Format // correction storage format (s13.4 or s13.0)
	// Directivity prunes reference-table entries for on-axis points outside
	// an element's acceptance cone (Fig. 3a). Zero value = no pruning.
	Directivity xdcr.Directivity
	// OriginZ places the sound origin O at (0, 0, OriginZ), meters along
	// the z axis (the paper's folding requires O vertically aligned with
	// the array center).
	OriginZ float64
}

// Bits18Config returns the TABLESTEER-18b formats (u13.5 ref, s13.4 corr).
func Bits18Config() (ref, corr fixed.Format) { return fixed.U13p5, fixed.S13p4 }

// DefaultDirectivity is the element acceptance cone used by the accuracy
// experiments: a 60° half-angle. Under it the directivity-filtered
// steering-error statistics at paper scale measure max 2.49 µs (80
// samples) and mean 1.61 samples (50.5 ns at 32 MHz), against the §VI-A
// figures of 3.1 µs and 1.4285 samples (44.6 ns); the gap is open (ROADMAP
// item 2).
func DefaultDirectivity() xdcr.Directivity {
	return xdcr.Directivity{MaxAngle: geom.Radians(60)}
}

// Bits14Config returns the TABLESTEER-14b formats: the reference delay
// drops to u13.1 while the corrections keep their 4 fractional bits in a
// narrower s9.4 word (their magnitude never exceeds the ±214-sample plane
// amplitude, so 9 integer bits suffice). Table II's modelled 14-bit
// average inaccuracy is the measured algorithmic mean plus the expected
// |quantization error| of this split (ExpectedAbsQuantError): 1.74 samples
// at paper scale (`usbeam table2 -paper`), against the published 1.55; the
// 18-bit pair models 1.64 against 1.44. The quantization terms measure
// 0.126 and 0.022 samples; the rest of the gap is the algorithmic mean's,
// 1.61 samples against the paper's 1.4285 (ROADMAP item 2).
func Bits14Config() (ref, corr fixed.Format) {
	return fixed.U13p1, fixed.Format{IntBits: 9, FracBits: 4, Signed: true}
}

// foldIndex maps element index i of an n-wide axis onto the |coordinate|
// quadrant index in [0, foldedDim(n)). Centered arrays are symmetric, so
// elements at ±x share a reference entry ("exactly three quarters of the
// matrix are redundant", §V-A).
func foldIndex(i, n int) int {
	if n%2 == 0 {
		if i >= n/2 {
			return i - n/2
		}
		return n/2 - 1 - i
	}
	d := i - (n-1)/2
	if d < 0 {
		d = -d
	}
	return d
}

// foldedDim returns the quadrant-axis length for an n-wide element axis.
func foldedDim(n int) int {
	if n%2 == 0 {
		return n / 2
	}
	return (n + 1) / 2
}

// RefTable is the folded reference delay table: the two-way delay
// tp(O, R, D) for reference points R on the z axis at every focal depth and
// every |xD|, |yD| quadrant element position. Entries are kept both as
// float64 (algorithmic analysis) and as fixed-point raw words (datapath).
type RefTable struct {
	QX, QY, Depths int
	Fmt            fixed.Format
	vals           []float64 // [qx][qy][d] two-way delay in samples
	raws           []int64   // quantized to Fmt
	pruned         []bool    // true where directivity rejects the entry
	PrunedCount    int
	SatCount       int // entries that saturated the fixed format
}

// BuildRefTable constructs the table for cfg. O sits at (0, 0, OriginZ).
func BuildRefTable(cfg Config) *RefTable {
	qx, qy := foldedDim(cfg.Arr.NX), foldedDim(cfg.Arr.NY)
	nd := cfg.Vol.Depth.N
	t := &RefTable{
		QX: qx, QY: qy, Depths: nd, Fmt: cfg.RefFmt,
		vals:   make([]float64, qx*qy*nd),
		raws:   make([]int64, qx*qy*nd),
		pruned: make([]bool, qx*qy*nd),
	}
	dir := cfg.Directivity
	if dir.MaxAngle == 0 {
		dir = xdcr.OmniDirectivity()
	}
	origin := geom.Vec3{Z: cfg.OriginZ}
	// Representative |x| positions: pick the non-negative-side elements.
	for d := 0; d < nd; d++ {
		r := cfg.Vol.Depth.At(d)
		ref := geom.Vec3{Z: r}
		txLeg := ref.Dist(origin)
		for jy := 0; jy < qy; jy++ {
			ya := math.Abs(cfg.Arr.ElementY(foldSource(jy, cfg.Arr.NY)))
			for jx := 0; jx < qx; jx++ {
				xa := math.Abs(cfg.Arr.ElementX(foldSource(jx, cfg.Arr.NX)))
				rxLeg := math.Sqrt(r*r + xa*xa + ya*ya)
				samples := cfg.Conv.MetersToSamples(txLeg + rxLeg)
				idx := t.index(jx, jy, d)
				t.vals[idx] = samples
				v, sat := fixed.Quantize(samples, cfg.RefFmt, fixed.RoundNearest)
				t.raws[idx] = v.Raw
				if sat {
					t.SatCount++
				}
				if !dir.Accepts(geom.Vec3{X: xa, Y: ya}, ref) {
					t.pruned[idx] = true
					t.PrunedCount++
				}
			}
		}
	}
	return t
}

// foldSource returns a concrete element index whose folded index is q.
func foldSource(q, n int) int {
	if n%2 == 0 {
		return n/2 + q
	}
	return (n-1)/2 + q
}

func (t *RefTable) index(qx, qy, d int) int { return (d*t.QY+qy)*t.QX + qx }

// Entries returns the stored entry count (the paper's 2.5×10⁶ at Table I).
func (t *RefTable) Entries() int { return t.QX * t.QY * t.Depths }

// StorageBits returns the folded-table footprint (45 Mb at 18-bit Table I).
func (t *RefTable) StorageBits() int { return t.Entries() * t.Fmt.Bits() }

// At returns the float reference delay (samples) for quadrant (qx,qy,d).
func (t *RefTable) At(qx, qy, d int) float64 { return t.vals[t.index(qx, qy, d)] }

// RawAt returns the fixed-point word for quadrant (qx,qy,d).
func (t *RefTable) RawAt(qx, qy, d int) int64 { return t.raws[t.index(qx, qy, d)] }

// Pruned reports whether the entry is outside element directivity.
func (t *RefTable) Pruned(qx, qy, d int) bool { return t.pruned[t.index(qx, qy, d)] }

// NappeSlice returns the raw words of one depth slice in quadrant-row-major
// order — the unit the DRAM streamer transfers (§V-B).
func (t *RefTable) NappeSlice(d int) []int64 {
	out := make([]int64, t.QX*t.QY)
	copy(out, t.raws[d*t.QX*t.QY:(d+1)*t.QX*t.QY])
	return out
}

// Fig3aDots samples the unpruned (xD, yD, depth) lattice of the reference
// table — the dot cloud of Fig. 3(a) — returning one row per live entry of
// the (optionally strided) table: {±xIndex, ±yIndex, depthIndex} restricted
// to the stored quadrant.
func (t *RefTable) Fig3aDots(strideQ, strideD int) [][3]int {
	if strideQ < 1 {
		strideQ = 1
	}
	if strideD < 1 {
		strideD = 1
	}
	var dots [][3]int
	for d := 0; d < t.Depths; d += strideD {
		for jy := 0; jy < t.QY; jy += strideQ {
			for jx := 0; jx < t.QX; jx += strideQ {
				if !t.Pruned(jx, jy, d) {
					dots = append(dots, [3]int{jx, jy, d})
				}
			}
		}
	}
	return dots
}

// String summarizes the table.
func (t *RefTable) String() string {
	return fmt.Sprintf("ref table %d×%d×%d (%d entries, %d pruned, %.1f Mb @ %v)",
		t.QX, t.QY, t.Depths, t.Entries(), t.PrunedCount,
		float64(t.StorageBits())/1e6, t.Fmt)
}
