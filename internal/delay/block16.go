// Narrow delay blocks: the one form of the nappe datapath. The paper's
// delay words are small — 14-bit selection indices into an echo window of
// "slightly more than 8000 samples" (§V-B) — so a block stores the *integer
// selection index* the beamformer actually consumes, in 2 bytes per delay.
// Quantization is exact: the beamformer rounds every fractional delay
// through Index before touching an echo buffer, and Index16 is that same
// rounding saturated to int16. Every index but math.MaxInt16 selects the
// identical sample in any window (a delay below −32768 saturates to
// math.MinInt16, negative, silence like the delay itself); math.MaxInt16
// stands for every delay ≥ 32767 and reads silence in any window of at most
// MaxEchoWindow samples, exactly like the delay it replaces. A longer window
// must not read it as a sample index — the session beamforms such a nappe
// through the scalar law instead.
package delay

import "math"

// MaxEchoWindow is the largest echo-buffer length in which every int16
// selection index, saturated ones included, selects what the scalar law
// selects: saturation at math.MaxInt16 must itself land outside the window
// so a saturated index reads silence, exactly like the wide index it stands
// for. Table I windows are ~8.5k samples — a quarter of this bound —
// matching the paper's 13/14-bit index budget.
const MaxEchoWindow = math.MaxInt16

// Block16 is a nappe delay block of quantized selection indices in Layout
// order (θ, φ, element row, element column). At 2 bytes per delay it
// carries the same information the beamformer uses at a quarter of a
// float64 block's footprint.
type Block16 []int16

// Index16 rounds a fractional delay to its int16 echo-buffer selection
// index, saturating out-of-range values. For windows of at most
// MaxEchoWindow samples the saturated extremes are out-of-window on both
// paths, so Index16 and Index select the same echo sample always.
func Index16(samples float64) int16 {
	r := math.Round(samples)
	if !(r < math.MaxInt16) {
		return math.MaxInt16
	}
	if r < math.MinInt16 {
		return math.MinInt16
	}
	return int16(r)
}

// BlockProvider16 is an alias of BlockProvider.
type BlockProvider16 = BlockProvider

// FillNappe16 implements BlockProvider for the exact reference: the focal
// point and its transmit leg |S−O| are computed once per voxel and reused
// across the whole element plane (the per-element work drops from two
// square roots to one), the remaining arithmetic is ordered exactly as
// DelaySamples orders it, and the quantization is fused into the element
// loop. The element positions come from the grid NewExact built.
func (e *Exact) FillNappe16(id int, dst Block16) {
	l := e.Layout()
	k := 0
	for it := 0; it < l.NTheta; it++ {
		for ip := 0; ip < l.NPhi; ip++ {
			s := e.Vol.FocalPoint(it, ip, id)
			tx := s.Dist(e.Origin)
			for _, d := range e.elems {
				dst[k] = Index16(e.Conv.SecondsToSamples((tx + s.Dist(d)) / e.Conv.C))
				k++
			}
		}
	}
}

// FillNappe16 implements BlockProvider with one scalar call per slot,
// quantizing each delay as it is produced. It is the one block fill of the
// scalar law: a plain Provider takes it through AsBlock, and a generator
// takes it for every configuration its native fill does not serve.
func (a *ScalarAdapter) FillNappe16(id int, dst Block16) {
	k := 0
	for it := 0; it < a.L.NTheta; it++ {
		for ip := 0; ip < a.L.NPhi; ip++ {
			for ej := 0; ej < a.L.NY; ej++ {
				for ei := 0; ei < a.L.NX; ei++ {
					dst[k] = Index16(a.P.DelaySamples(it, ip, id, ei, ej))
					k++
				}
			}
		}
	}
}
