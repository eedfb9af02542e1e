// Package delay defines the propagation-delay law at the heart of receive
// beamforming (Eq. 2/3 of the paper), the conversion between seconds, meters
// and echo-buffer sample units, and the Provider interface implemented by
// the exact reference, TABLEFREE and TABLESTEER delay generators.
//
// Delays are produced at two granularities. Provider.DelaySamples is the
// scalar law — one (voxel, element) pair per call — and stays the executable
// specification. BlockProvider.FillNappe16 is the bulk form: one call fills
// the contiguous θ×φ×element block of int16 selection indices of a whole
// depth nappe, mirroring the paper's Algorithm 1 nappe sweep in which both
// hardware architectures amortize per-voxel work (transmit leg,
// reference-table slice) across the aperture. The streaming beamformer
// consumes nappe blocks; ScalarAdapter lifts any plain Provider onto the
// block interface unchanged. Every block slot is Index16 of the scalar law
// by contract.
//
// One "sample" is 1/fs (31.25 ns at the Table I sampling rate of 32 MHz);
// the delay value used by the beamformer is the sample index into each
// element's echo buffer, so all accuracy figures in the paper — and here —
// are quoted in |off samples|.
package delay

import (
	"fmt"
	"math"

	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// Converter holds the two physical constants that map geometry to echo
// sample indices: speed of sound c and sampling frequency fs.
type Converter struct {
	C  float64 // speed of sound in the medium, m/s (1540 in tissue)
	Fs float64 // sampling frequency, Hz (32 MHz in Table I)
}

// SecondsToSamples converts a time delay to fractional sample units.
func (cv Converter) SecondsToSamples(t float64) float64 { return t * cv.Fs }

// SamplesToSeconds converts fractional sample units back to seconds.
func (cv Converter) SamplesToSeconds(s float64) float64 { return s / cv.Fs }

// MetersToSamples converts a one-way path length to sample units.
func (cv Converter) MetersToSamples(d float64) float64 { return d * cv.Fs / cv.C }

// SamplePeriod returns the duration of one sample in seconds.
func (cv Converter) SamplePeriod() float64 { return 1 / cv.Fs }

// TwoWaySeconds evaluates Eq. (2): the propagation time from emission
// reference O to scatterer S and back to element D.
func TwoWaySeconds(o, s, d geom.Vec3, c float64) float64 {
	return (s.Dist(o) + s.Dist(d)) / c
}

// Provider generates two-way delay values, in fractional sample units, for
// every (focal point, element) pair of a fixed volume/array configuration.
// Implementations: the float64 Exact reference below, tablefree.Provider and
// tablesteer.Provider.
type Provider interface {
	// Name identifies the architecture for reports ("exact", "tablefree", ...).
	Name() string
	// DelaySamples returns the two-way delay for focal grid node (it, ip,
	// id) and element (ei, ej), in fractional sample units.
	DelaySamples(it, ip, id, ei, ej int) float64
}

// Index rounds a fractional delay to the integer echo-buffer selection
// index, the quantity the paper compares across implementations ("quantizing
// both to an integer selection index prior to comparison", §VI-A).
//
// A NaN delay selects −1, silence: Go leaves the conversion of NaN to int
// to the platform (amd64 yields math.MinInt64, arm64 0, which would read
// sample 0), and Index16 maps NaN to a saturated index that reads silence
// too.
//
// This sits on the scalar reference's per-delay path. Keep math.Round: its
// branchless bit manipulation beats a truncate-and-compare half rule, whose
// f ≥ 0.5 branch is data-dependent on random delay fractions and pays a
// misprediction roughly every other delay (~1.6× slower end to end when
// tried). The NaN test is never taken on a real delay.
func Index(samples float64) int {
	if samples != samples {
		return -1
	}
	return int(math.Round(samples))
}

// Exact is the float64 golden-model Provider: Eq. (2) evaluated directly.
// It plays the role of the paper's Matlab high-precision reference.
type Exact struct {
	Vol    scan.Volume
	Arr    xdcr.Array
	Origin geom.Vec3
	Conv   Converter

	elems []geom.Vec3 // Arr's element positions in block order (ej·NX+ei)
}

// Exact fills blocks natively (FillNappe16).
var _ BlockProvider = (*Exact)(nil)

// NewExact builds the reference provider. A zero Origin places the emission
// reference at the array center, the paper's default. The block fill reads
// the element grid it builds here, so Arr is fixed from then on.
func NewExact(v scan.Volume, a xdcr.Array, origin geom.Vec3, cv Converter) *Exact {
	if cv.C <= 0 || cv.Fs <= 0 {
		panic(fmt.Sprintf("delay: invalid converter %+v", cv))
	}
	elems := make([]geom.Vec3, a.NX*a.NY)
	for ej := 0; ej < a.NY; ej++ {
		for ei := 0; ei < a.NX; ei++ {
			elems[ej*a.NX+ei] = a.ElementPos(ei, ej)
		}
	}
	return &Exact{Vol: v, Arr: a, Origin: origin, Conv: cv, elems: elems}
}

// Name implements Provider.
func (e *Exact) Name() string { return "exact" }

// DelaySamples implements Provider with direct float64 evaluation.
func (e *Exact) DelaySamples(it, ip, id, ei, ej int) float64 {
	s := e.Vol.FocalPoint(it, ip, id)
	d := e.Arr.ElementPos(ei, ej)
	return e.Conv.SecondsToSamples(TwoWaySeconds(e.Origin, s, d, e.Conv.C))
}

// TransmitSamples returns only the transmit leg |S−O|·fs/c for focal node
// (it, ip, id); the receive leg varies per element, the transmit leg does not.
func (e *Exact) TransmitSamples(it, ip, id int) float64 {
	s := e.Vol.FocalPoint(it, ip, id)
	return e.Conv.MetersToSamples(s.Dist(e.Origin))
}

// ReceiveSamples returns only the receive leg |S−D|·fs/c.
func (e *Exact) ReceiveSamples(it, ip, id, ei, ej int) float64 {
	s := e.Vol.FocalPoint(it, ip, id)
	d := e.Arr.ElementPos(ei, ej)
	return e.Conv.MetersToSamples(s.Dist(d))
}

// Stats accumulates error statistics between a provider under test and the
// exact reference, in sample units, both raw (fractional) and after
// quantization to selection indices.
type Stats struct {
	N             int
	MeanAbs       float64 // mean |fractional error|
	MaxAbs        float64 // max |fractional error|
	MeanAbsIndex  float64 // mean |index error| after rounding both sides
	MaxAbsIndex   int     // max |index error|
	OffIndexCount int     // how many points had a nonzero index error
	sumAbs        float64
	sumAbsIdx     float64
}

// Add records one (approx, exact) delay pair.
func (st *Stats) Add(approx, exact float64) {
	st.N++
	e := math.Abs(approx - exact)
	st.sumAbs += e
	if e > st.MaxAbs {
		st.MaxAbs = e
	}
	ie := Index(approx) - Index(exact)
	if ie < 0 {
		ie = -ie
	}
	st.sumAbsIdx += float64(ie)
	if ie > st.MaxAbsIndex {
		st.MaxAbsIndex = ie
	}
	if ie != 0 {
		st.OffIndexCount++
	}
	st.MeanAbs = st.sumAbs / float64(st.N)
	st.MeanAbsIndex = st.sumAbsIdx / float64(st.N)
}

// OffIndexFraction returns the fraction of points whose selection index
// differed (the §VI-A "33 % of the echo samples" statistic).
func (st *Stats) OffIndexFraction() float64 {
	if st.N == 0 {
		return 0
	}
	return float64(st.OffIndexCount) / float64(st.N)
}

// String renders the statistics in the paper's terms.
func (st *Stats) String() string {
	return fmt.Sprintf("n=%d mean|err|=%.4f max|err|=%.4f samples; index: mean %.4f max %d off %.2f%%",
		st.N, st.MeanAbs, st.MaxAbs, st.MeanAbsIndex, st.MaxAbsIndex, 100*st.OffIndexFraction())
}

// Compare sweeps a subsampled volume/aperture and accumulates provider-vs-
// exact statistics. strideE subsamples elements (values below 1 mean the
// full aperture), the volume is walked as given (callers pass a
// pre-subsampled volume for coarse sweeps).
func Compare(p Provider, e *Exact, strideE int) Stats {
	strideE = max(strideE, 1)
	var st Stats
	e.Vol.Walk(scan.NappeOrder, func(ix scan.Index) {
		for ej := 0; ej < e.Arr.NY; ej += strideE {
			for ei := 0; ei < e.Arr.NX; ei += strideE {
				st.Add(p.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej),
					e.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej))
			}
		}
	})
	return st
}
