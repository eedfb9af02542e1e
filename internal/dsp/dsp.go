// Package dsp supplies the signal-processing substrate of the imaging
// pipeline built around the delay generators: FIR filter design, IQ
// demodulation, envelope detection and log compression. The beamforming
// experiments use it to turn delay-and-sum RF output into B-mode-style
// magnitude data so that point-spread-function metrics can compare delay
// architectures the way the paper's image-quality argument (§II-A) frames
// it.
package dsp

import (
	"errors"
	"math"
)

// Sinc is the normalized sinc function sin(πx)/(πx).
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// LowpassFIR designs a windowed-sinc linear-phase lowpass filter with the
// given normalized cutoff (cycles/sample, 0 < cutoff < 0.5) and odd length.
// The Hamming window keeps stopband ripple below ≈−53 dB, ample for
// envelope extraction. Coefficients are normalized to unit DC gain.
func LowpassFIR(cutoff float64, taps int) ([]float64, error) {
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, errors.New("dsp: cutoff must be in (0, 0.5)")
	}
	if taps < 3 || taps%2 == 0 {
		return nil, errors.New("dsp: taps must be odd and ≥ 3")
	}
	h := make([]float64, taps)
	mid := (taps - 1) / 2
	sum := 0.0
	for i := range h {
		n := float64(i - mid)
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = 2 * cutoff * Sinc(2*cutoff*n) * w
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h, nil
}

// Convolve returns the "same"-length convolution of x with kernel h: output
// sample i aligns with input sample i (group delay removed for odd-length
// linear-phase kernels).
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]float64, len(x))
	mid := (len(h) - 1) / 2
	for i := range x {
		acc := 0.0
		for k, hk := range h {
			j := i + mid - k
			if j >= 0 && j < len(x) {
				acc += hk * x[j]
			}
		}
		out[i] = acc
	}
	return out
}

// IQ holds a demodulated baseband pair.
type IQ struct {
	I, Q []float64
}

// Demodulate mixes the RF signal down from carrier f0 (Hz) at sample rate
// fs and lowpass-filters both rails. The resulting complex baseband has the
// signal envelope as magnitude. cutoff is the normalized lowpass cutoff;
// a good default is 1.5×bandwidth/fs.
func Demodulate(rf []float64, f0, fs, cutoff float64, taps int) (IQ, error) {
	lp, err := LowpassFIR(cutoff, taps)
	if err != nil {
		return IQ{}, err
	}
	i := make([]float64, len(rf))
	q := make([]float64, len(rf))
	w := 2 * math.Pi * f0 / fs
	for n, x := range rf {
		ph := w * float64(n)
		i[n] = 2 * x * math.Cos(ph)
		q[n] = -2 * x * math.Sin(ph)
	}
	return IQ{I: Convolve(i, lp), Q: Convolve(q, lp)}, nil
}

// Envelope returns |I+jQ| per sample.
func (iq IQ) Envelope() []float64 {
	out := make([]float64, len(iq.I))
	for n := range out {
		out[n] = math.Hypot(iq.I[n], iq.Q[n])
	}
	return out
}

// LogCompress maps an envelope to decibels relative to its own maximum,
// clamped at -dynamicRange dB (standard B-mode display compression).
func LogCompress(env []float64, dynamicRange float64) []float64 {
	maxV := 0.0
	for _, v := range env {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]float64, len(env))
	if maxV == 0 {
		for i := range out {
			out[i] = -dynamicRange
		}
		return out
	}
	for i, v := range env {
		if v <= 0 {
			out[i] = -dynamicRange
			continue
		}
		db := 20 * math.Log10(v/maxV)
		if db < -dynamicRange {
			db = -dynamicRange
		}
		out[i] = db
	}
	return out
}

// PeakIndex returns the index of the largest value (first on ties), or -1
// for empty input.
func PeakIndex(x []float64) int {
	best, idx := math.Inf(-1), -1
	for i, v := range x {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// FWHM measures the full width at half maximum around the global peak, in
// samples, using linear interpolation at the half-power crossings. It
// returns 0 for signals without a proper peak.
func FWHM(x []float64) float64 {
	p := PeakIndex(x)
	if p < 0 || x[p] <= 0 {
		return 0
	}
	half := x[p] / 2
	left := 0.0
	for i := p; i > 0; i-- {
		if x[i-1] <= half {
			frac := (x[i] - half) / (x[i] - x[i-1])
			left = float64(p-i) + frac
			break
		}
		if i == 1 {
			left = float64(p)
		}
	}
	right := 0.0
	for i := p; i < len(x)-1; i++ {
		if x[i+1] <= half {
			frac := (x[i] - half) / (x[i] - x[i+1])
			right = float64(i-p) + frac
			break
		}
		if i == len(x)-2 {
			right = float64(len(x) - 1 - p)
		}
	}
	return left + right
}

// RMS returns the root-mean-square of x (0 for empty input).
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}
