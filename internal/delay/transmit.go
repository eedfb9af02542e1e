// Per-transmit emission parametrization. The paper's analysis assumes one
// insonification per volume, but every real 3-D system compounds several
// steered transmits per frame: the volume is insonified N times, each shot
// from a different emission reference O ("techniques like synthetic aperture
// imaging rely on repositioning O at every insonification", §V), and the N
// receive beamformations are summed coherently. The Transmit descriptor
// names one such insonification; TransmitProvider lets every delay
// architecture derive a variant of itself for another transmit, reusing the
// transmit leg the exact law already carries (Exact.Origin) — delay tables
// and caches then key their storage by (transmit, nappe), which is exactly
// how the working set multiplies by the transmit count.
package delay

import (
	"fmt"

	"ultrabeam/internal/geom"
)

// Transmit describes one insonification of the volume: the emission
// reference O the transmit leg |S−O| of Eq. (2) is measured from. The zero
// value is the paper's default — emission from the array center. Steering is
// expressed through origin placement: a virtual source behind the z = 0
// aperture plane (negative Z) produces a diverging wave, and lateral X/Y
// offsets steer it, so a transmit set is just a list of origins.
type Transmit struct {
	Origin geom.Vec3 // emission reference O, meters
}

// String renders the transmit for reports.
func (t Transmit) String() string { return "tx@" + t.Origin.String() }

// TransmitProvider is implemented by delay providers that can derive a
// variant of themselves for a different transmit. The derived provider obeys
// the same contracts as the receiver (scalar law is the specification, block
// fills are bit-identical to it); only the transmit leg changes. Providers
// may reject transmits their architecture cannot represent — TABLESTEER's
// folded reference table requires the origin on the z axis, for example —
// in which case they return a descriptive error.
type TransmitProvider interface {
	Provider
	// WithTransmit returns a provider generating delays for tx. The receiver
	// is not modified; derived providers are independent and safe to use
	// concurrently with the receiver.
	WithTransmit(tx Transmit) (Provider, error)
}

// ForTransmit derives a provider for tx from p, which must implement
// TransmitProvider.
func ForTransmit(p Provider, tx Transmit) (Provider, error) {
	tp, ok := p.(TransmitProvider)
	if !ok {
		return nil, fmt.Errorf("delay: provider %s cannot be re-targeted to %v (no TransmitProvider support)",
			p.Name(), tx)
	}
	return tp.WithTransmit(tx)
}

// ForTransmits derives one provider per transmit of the set, in order. An
// empty set yields p itself as the sole entry (the single-insonification
// default).
func ForTransmits(p Provider, txs []Transmit) ([]Provider, error) {
	if len(txs) == 0 {
		return []Provider{p}, nil
	}
	out := make([]Provider, len(txs))
	for i, tx := range txs {
		q, err := ForTransmit(p, tx)
		if err != nil {
			return nil, fmt.Errorf("transmit %d: %w", i, err)
		}
		out[i] = q
	}
	return out, nil
}

// SteeredTransmits returns n diverging-wave insonifications: virtual
// sources depthBehind meters behind the aperture plane, lateral offsets
// evenly spanning ±span/2 along x. n = 1 yields the centered source; n ≤ 0
// yields the single zero-value transmit (emission from the array center, the
// paper's default). This is the standard compounding geometry: each shot
// diverges from a different virtual source, and coherent summation of the
// N receive volumes recovers transmit focusing everywhere.
func SteeredTransmits(n int, depthBehind, span float64) []Transmit {
	if n <= 0 {
		return []Transmit{{}}
	}
	if depthBehind < 0 {
		depthBehind = -depthBehind
	}
	out := make([]Transmit, n)
	for i := range out {
		x := 0.0
		if n > 1 {
			x = -span/2 + span*float64(i)/float64(n-1)
		}
		out[i] = Transmit{Origin: geom.Vec3{X: x, Z: -depthBehind}}
	}
	return out
}

// AxialTransmits returns n on-axis virtual sources with depths evenly
// spanning [zmin, zmax] (negative = behind the aperture). Every origin lies
// on the z axis, so every delay generator represents the set — exact,
// TABLEFREE, and TABLESTEER too (one folded reference table per transmit,
// the §V "multiple precalculated delay tables" extension).
func AxialTransmits(n int, zmin, zmax float64) []Transmit {
	if n <= 0 {
		return []Transmit{{}}
	}
	out := make([]Transmit, n)
	for i := range out {
		z := zmin
		if n > 1 {
			z += (zmax - zmin) * float64(i) / float64(n-1)
		}
		out[i] = Transmit{Origin: geom.Vec3{Z: z}}
	}
	return out
}

// WithTransmit implements TransmitProvider for the exact reference: the
// golden model supports any emission origin directly.
func (e *Exact) WithTransmit(tx Transmit) (Provider, error) {
	ne := *e
	ne.Origin = tx.Origin
	return &ne, nil
}
