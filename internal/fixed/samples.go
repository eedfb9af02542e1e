package fixed

import "math"

// The int16 echo-sample rule. Two producers turn a frame of float64 echo
// samples into int16 words plus one scale (sample ≈ word·scale): the wire
// codec's i16 frames (wire.QuantizeI16) and the fixed-point beamform plane
// (rf.QuantizePlaneI16). Both run the rule below, row by row, so a frame
// quantized either way carries the same words and the same scale — which
// is what keeps a plane batch bit-identical to a wire-quantized one:
//
//   - peak: the largest finite |v| over the whole frame (PeakI16);
//   - scale: peak/32767, so the loudest sample spans the int16 range, or 1
//     when that is 0 — always positive and finite (ScaleI16);
//   - each sample: v/scale rounded half to even and saturated at ±32767;
//     ±Inf saturates, NaN quantizes to 0 (QuantizeRowI16).

// PeakI16 folds row into a running frame peak: the largest finite |v|.
func PeakI16(peak float64, row []float64) float64 {
	for _, v := range row {
		if a := math.Abs(v); a > peak && !math.IsInf(v, 0) {
			peak = a
		}
	}
	return peak
}

// ScaleI16 returns the frame scale for a peak from PeakI16.
func ScaleI16(peak float64) float32 {
	s := peak / 32767
	if s == 0 || math.IsNaN(s) {
		s = 1
	}
	return float32(s)
}

// QuantizeRowI16 quantizes src into dst[:len(src)] at a frame scale from
// ScaleI16.
func QuantizeRowI16(dst []int16, src []float64, scale float32) {
	inv := 1 / float64(scale) // one divide; the loop multiplies
	dst = dst[:len(src)]
	for i, v := range src {
		x := v * inv
		switch {
		case math.IsNaN(x):
			dst[i] = 0
		case x >= 32767:
			dst[i] = 32767
		case x <= -32767:
			dst[i] = -32767
		default:
			dst[i] = int16((x + roundI16Magic) - roundI16Magic)
		}
	}
}

// roundI16Magic rounds half-to-even without math.RoundToEven's bit
// twiddling (which amd64 does not intrinsify and which dominated the
// convert phase's profile): adding 3·2^51 pushes any |x| < 2^51 into
// [2^52, 2^53), where float64 spacing is exactly 1.0, so the add itself
// rounds to the nearest integer with IEEE ties-to-even; the subtraction of
// two integers that close is exact. The constant's parity is even, so tie
// parity — and therefore every result bit — matches math.RoundToEven.
const roundI16Magic = float64(3 << 51)
