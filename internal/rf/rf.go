// Package rf simulates the receive front end the paper's delay generators
// serve: transmit pulse, point-scatterer phantoms, per-element echo
// synthesis sampled at fs, and the per-element echo buffers the computed
// delays index into. This is the substitution for probe hardware (see
// DESIGN.md §3): echoes arrive at exactly the physical two-way propagation
// times of Eq. 2, so beamforming through any delay provider exercises the
// identical selection-index code path the FPGA datapaths feed.
package rf

import (
	"fmt"
	"math"
	"math/rand"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/xdcr"
)

// Pulse is a Gaussian-enveloped sinusoid: the standard model of an
// ultrasound transmit pulse with center frequency Fc and fractional
// bandwidth set by the envelope sigma.
type Pulse struct {
	Fc    float64 // center frequency, Hz (4 MHz in Table I)
	Sigma float64 // Gaussian envelope standard deviation, seconds
}

// NewPulse derives the envelope width from the -6 dB fractional bandwidth
// (Table I: B = 4 MHz at fc = 4 MHz → 100 % fractional bandwidth).
func NewPulse(fc, bandwidth float64) Pulse {
	// For a Gaussian envelope, the -6 dB two-sided spectral width B relates
	// to sigma as B = 2·sqrt(2·ln2)/(2π·sigma)·... using the standard
	// result sigmaF = B / (2·sqrt(2·ln2)) and sigmaT = 1/(2π·sigmaF).
	sigmaF := bandwidth / (2 * math.Sqrt(2*math.Ln2))
	return Pulse{Fc: fc, Sigma: 1 / (2 * math.Pi * sigmaF)}
}

// At evaluates the pulse at time t (seconds, centered on 0).
func (p Pulse) At(t float64) float64 {
	return math.Exp(-t*t/(2*p.Sigma*p.Sigma)) * math.Cos(2*math.Pi*p.Fc*t)
}

// Duration returns the two-sided support used when synthesizing echoes
// (±4σ keeps truncation below 0.034 % of peak).
func (p Pulse) Duration() float64 { return 8 * p.Sigma }

// Scatterer is one reflective point in the insonified volume.
type Scatterer struct {
	Pos  geom.Vec3
	Refl float64 // reflectivity (echo amplitude scale)
}

// Phantom is a collection of scatterers.
type Phantom struct {
	Scatterers []Scatterer
}

// PointPhantom places a single unit scatterer — the PSF measurement target.
func PointPhantom(pos geom.Vec3) Phantom {
	return Phantom{Scatterers: []Scatterer{{Pos: pos, Refl: 1}}}
}

// GridPhantom places scatterers on the given positions with unit
// reflectivity, for multi-target resolution studies.
func GridPhantom(positions []geom.Vec3) Phantom {
	p := Phantom{Scatterers: make([]Scatterer, len(positions))}
	for i, pos := range positions {
		p.Scatterers[i] = Scatterer{Pos: pos, Refl: 1}
	}
	return p
}

// SpecklePhantom scatters n weak random reflectors inside the box
// [min, max], seeding reproducibly — a crude tissue-speckle model.
func SpecklePhantom(n int, min, max geom.Vec3, seed int64) Phantom {
	rng := rand.New(rand.NewSource(seed))
	p := Phantom{Scatterers: make([]Scatterer, n)}
	for i := range p.Scatterers {
		p.Scatterers[i] = Scatterer{
			Pos: geom.Vec3{
				X: min.X + rng.Float64()*(max.X-min.X),
				Y: min.Y + rng.Float64()*(max.Y-min.Y),
				Z: min.Z + rng.Float64()*(max.Z-min.Z),
			},
			Refl: 0.05 + 0.1*rng.Float64(),
		}
	}
	return p
}

// EchoBuffer holds one element's sampled echo signal; delay values index
// into it ("the delay values are used as an index into an echo buffer
// containing slightly more than 8000 samples", §V-B).
type EchoBuffer struct {
	Samples []float64
}

// At returns the sample at integer index i, zero outside the buffer —
// matching the hardware behaviour of reading an out-of-window address.
func (b EchoBuffer) At(i int) float64 {
	if i < 0 || i >= len(b.Samples) {
		return 0
	}
	return b.Samples[i]
}

// Plane32 flattens a uniform-window echo buffer set into one guarded
// float32 plane: element d's win samples at plane[d·(win+1)] (one rounding
// per sample), and the trailing guard slot of every row zero — the layout
// of PlaneI16 at float32 width. No kernel consumes it; the served-volume
// benchmark times it as the float32 reference point of the echo-plane
// builds. Every buffer must hold exactly win samples.
func Plane32(bufs []EchoBuffer, win int) ([]float32, error) {
	if win <= 0 {
		return nil, fmt.Errorf("rf: plane window %d must be positive", win)
	}
	stride := win + 1
	plane := make([]float32, len(bufs)*stride) // fresh: guard slots zero
	for d, b := range bufs {
		if len(b.Samples) != win {
			return nil, fmt.Errorf("rf: element %d has %d samples; a plane needs a uniform window of %d", d, len(b.Samples), win)
		}
		row := plane[d*stride : d*stride+win]
		for i, v := range b.Samples {
			row[i] = float32(v)
		}
	}
	return plane, nil
}

// PlaneI16 flattens a uniform-window echo buffer set into one guarded
// int16 plane: element d's win samples at plane[d·(win+1)], guard slots
// zero (the fixed-point kernel's clamp target for out-of-window indices),
// plus one per-frame quantization scale such that sample = int16·scale.
// Quantization is the int16 echo-sample rule of package fixed, the one
// the wire codec's QuantizeI16 runs too: scale is peak/32767 so the
// loudest sample spans the full int16 range, values round to even and
// saturate at ±32767, ±Inf saturates, NaN quantizes to 0, and an all-zero
// (or all-non-finite) frame gets scale 1. The
// fixed-point beamform kernel (PrecisionInt16) gathers from this layout;
// the wire layer's DecodePlaneI16 produces the same layout straight off the
// network.
func PlaneI16(bufs []EchoBuffer, win int) ([]int16, float32, error) {
	if win <= 0 {
		return nil, 0, fmt.Errorf("rf: plane window %d must be positive", win)
	}
	for d, b := range bufs {
		if len(b.Samples) != win {
			return nil, 0, fmt.Errorf("rf: element %d has %d samples; a plane needs a uniform window of %d", d, len(b.Samples), win)
		}
	}
	plane := make([]int16, len(bufs)*(win+1)) // fresh: guard slots zero
	scale := QuantizePlaneI16(plane, bufs, win)
	return plane, scale, nil
}

// QuantizePlaneI16 is the in-place form of PlaneI16 for reused planes:
// every buffer must hold exactly win samples and plane must hold
// len(bufs)·(win+1) int16s with its guard slots already zero (rows are
// fully overwritten; guards are never touched). The beamform session's
// convert phase calls this per frame after validating the shape once per
// batch.
func QuantizePlaneI16(plane []int16, bufs []EchoBuffer, win int) (scale float32) {
	peak := 0.0
	for _, b := range bufs {
		peak = fixed.PeakI16(peak, b.Samples)
	}
	scale = fixed.ScaleI16(peak)
	stride := win + 1
	for d, b := range bufs {
		fixed.QuantizeRowI16(plane[d*stride:d*stride+win], b.Samples, scale)
	}
	return scale
}

// Config drives echo synthesis.
type Config struct {
	Arr        xdcr.Array
	Conv       delay.Converter
	Pulse      Pulse
	Origin     geom.Vec3        // transmit reference O
	BufSamples int              // echo buffer depth (≈8000 two-way at Table I)
	Dir        xdcr.Directivity // receive directivity applied to echo amplitude
	NoiseRMS   float64          // additive white noise level (0 = clean)
	NoiseSeed  int64
}

// Synthesize builds the per-element echo buffers for a phantom: each
// scatterer contributes a pulse centered at its exact two-way propagation
// time (Eq. 2), weighted by reflectivity, element directivity and spherical
// spreading. Buffers are indexed [ej][ei] row-major like xdcr.Array.
func Synthesize(cfg Config, ph Phantom) ([]EchoBuffer, error) {
	if cfg.BufSamples <= 0 {
		return nil, fmt.Errorf("rf: buffer depth %d must be positive", cfg.BufSamples)
	}
	if cfg.Conv.Fs <= 0 || cfg.Conv.C <= 0 {
		return nil, fmt.Errorf("rf: invalid converter %+v", cfg.Conv)
	}
	dir := cfg.Dir
	if dir.MaxAngle == 0 {
		dir = xdcr.OmniDirectivity()
	}
	n := cfg.Arr.Elements()
	bufs := make([]EchoBuffer, n)
	var rng *rand.Rand
	if cfg.NoiseRMS > 0 {
		rng = rand.New(rand.NewSource(cfg.NoiseSeed))
	}
	halfSupport := cfg.Pulse.Duration() / 2
	dt := cfg.Conv.SamplePeriod()
	for ej := 0; ej < cfg.Arr.NY; ej++ {
		for ei := 0; ei < cfg.Arr.NX; ei++ {
			buf := make([]float64, cfg.BufSamples)
			pos := cfg.Arr.ElementPos(ei, ej)
			for _, sc := range ph.Scatterers {
				tp := delay.TwoWaySeconds(cfg.Origin, sc.Pos, pos, cfg.Conv.C)
				w := sc.Refl * dir.Weight(pos, sc.Pos)
				if w == 0 {
					continue
				}
				// 1/r spreading on the receive leg (regularized near field).
				r := sc.Pos.Dist(pos)
				if r > 1e-3 {
					w *= 1e-3 / r
				}
				lo := int(math.Floor((tp - halfSupport) / dt))
				hi := int(math.Ceil((tp + halfSupport) / dt))
				if lo < 0 {
					lo = 0
				}
				if hi > cfg.BufSamples-1 {
					hi = cfg.BufSamples - 1
				}
				for s := lo; s <= hi; s++ {
					buf[s] += w * cfg.Pulse.At(float64(s)*dt-tp)
				}
			}
			if rng != nil {
				for s := range buf {
					buf[s] += rng.NormFloat64() * cfg.NoiseRMS
				}
			}
			bufs[cfg.Arr.Index(ei, ej)] = EchoBuffer{Samples: buf}
		}
	}
	return bufs, nil
}
