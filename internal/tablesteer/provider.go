package tablesteer

import (
	"fmt"
	"math"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
)

// CorrTables holds the precomputed steering corrections of Eq. (7), in
// sample units: the x part −xD·cosφ·sinθ for (θ, folded φ, element column)
// and the y part −yD·sinφ for (φ, element row). They are stored in the order
// the Fig. 4 adder chain consumes them — the element axis innermost — so the
// x corrections of one steering direction are one contiguous row. At Table I
// scale the counts are 100×64×128 + 100×128 = 832×10³, the paper's §V-B
// total.
type CorrTables struct {
	NX, NTheta, NPhi int
	NY               int
	PhiFolded        int // distinct cosφ values (φ grid is symmetric)
	Fmt              fixed.Format

	xvals    []float64 // [it][pf][ei]
	xraws    []int64
	yvals    []float64 // [ip][ej]
	yraws    []int64
	SatCount int
}

// phiFold maps φ index ip onto the folded cosφ index (cos is even in φ).
func phiFold(ip, nPhi int) int {
	if m := nPhi - 1 - ip; m < ip {
		return m
	}
	return ip
}

// phiFoldedDim returns the folded φ axis length (64 for 128).
func phiFoldedDim(nPhi int) int { return (nPhi + 1) / 2 }

// BuildCorrTables constructs the correction tables for cfg.
func BuildCorrTables(cfg Config) *CorrTables {
	pf := phiFoldedDim(cfg.Vol.Phi.N)
	c := &CorrTables{
		NX: cfg.Arr.NX, NY: cfg.Arr.NY,
		NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, PhiFolded: pf,
		Fmt:   cfg.CorrFmt,
		xvals: make([]float64, cfg.Arr.NX*pf*cfg.Vol.Theta.N),
		xraws: make([]int64, cfg.Arr.NX*pf*cfg.Vol.Theta.N),
		yvals: make([]float64, cfg.Arr.NY*cfg.Vol.Phi.N),
		yraws: make([]int64, cfg.Arr.NY*cfg.Vol.Phi.N),
	}
	// Built in storage order, so each angle's sine and cosine is taken once.
	toSamples := cfg.Conv.Fs / cfg.Conv.C
	idx := 0
	for it := 0; it < cfg.Vol.Theta.N; it++ {
		stheta := math.Sin(cfg.Vol.Theta.At(it))
		for p := 0; p < pf; p++ {
			cphi := math.Cos(cfg.Vol.Phi.At(p)) // |cosφ| same on both halves
			for ei := 0; ei < cfg.Arr.NX; ei++ {
				xd := cfg.Arr.ElementX(ei) * toSamples
				v := -xd * cphi * stheta
				c.xvals[idx] = v
				q, sat := fixed.Quantize(v, cfg.CorrFmt, fixed.RoundNearest)
				c.xraws[idx] = q.Raw
				if sat {
					c.SatCount++
				}
				idx++
			}
		}
	}
	idx = 0
	for ip := 0; ip < cfg.Vol.Phi.N; ip++ {
		sphi := math.Sin(cfg.Vol.Phi.At(ip))
		for ej := 0; ej < cfg.Arr.NY; ej++ {
			yd := cfg.Arr.ElementY(ej) * toSamples
			v := -yd * sphi
			c.yvals[idx] = v
			q, sat := fixed.Quantize(v, cfg.CorrFmt, fixed.RoundNearest)
			c.yraws[idx] = q.Raw
			if sat {
				c.SatCount++
			}
			idx++
		}
	}
	return c
}

// Entries returns the total stored coefficient count (§V-B: 832×10³).
func (c *CorrTables) Entries() int {
	return c.NX*c.PhiFolded*c.NTheta + c.NY*c.NPhi
}

// StorageBits returns the coefficient footprint (≈15.0 Mb at 18-bit scale;
// the paper quotes 14.3 Mb using binary mega-bits).
func (c *CorrTables) StorageBits() int { return c.Entries() * c.Fmt.Bits() }

// X returns the float x correction (samples) for element column ei at
// steering (it, ip).
func (c *CorrTables) X(ei, it, ip int) float64 { return c.xvals[c.xRow(it, ip)+ei] }

// Y returns the float y correction for element row ej at elevation ip.
func (c *CorrTables) Y(ej, ip int) float64 { return c.yvals[ip*c.NY+ej] }

// XRaw and YRaw return the fixed-point correction words.
func (c *CorrTables) XRaw(ei, it, ip int) int64 { return c.xraws[c.xRow(it, ip)+ei] }

func (c *CorrTables) YRaw(ej, ip int) int64 { return c.yraws[ip*c.NY+ej] }

// xRow returns the offset of steering direction (it, ip)'s NX x corrections.
func (c *CorrTables) xRow(it, ip int) int {
	return (it*c.PhiFolded + phiFold(ip, c.NPhi)) * c.NX
}

// Provider generates delays through the TABLESTEER architecture: reference
// table plus tilted-plane correction (Eq. 7). It implements delay.Provider.
// UseFixed selects the fixed-point datapath (table words + integer adders,
// the Fig. 4 block behaviour); the float path isolates the algorithmic
// (Taylor) error.
type Provider struct {
	Cfg      Config
	Ref      *RefTable
	Corr     *CorrTables
	UseFixed bool

	// The fixed datapath's block-fill operands, built once in New where the
	// formats prove the int32 kernel (narrowProven); nil otherwise, and the
	// fixed datapath then fills through the scalar law.
	narrow *operands
	// fused is the narrow datapath's fused-accumulate operand set, shared
	// with every derived transmit (fused.go); nil without narrow.
	fused *fusedOps
}

// Provider fills blocks natively (FillNappe16).
var _ delay.BlockProvider = (*Provider)(nil)

// New builds the provider, eagerly constructing both tables. Formats
// default to the 18-bit design point when left zero.
func New(cfg Config) *Provider {
	if !cfg.RefFmt.Valid() || !cfg.CorrFmt.Valid() {
		cfg.RefFmt, cfg.CorrFmt = Bits18Config()
	}
	p := &Provider{Cfg: cfg, Ref: BuildRefTable(cfg), Corr: BuildCorrTables(cfg)}
	if narrowProven(cfg.RefFmt, cfg.CorrFmt) {
		p.narrow = newOperands(p.Ref, p.Corr)
		p.fused = &fusedOps{}
	}
	return p
}

// operands is the fixed datapath's tables as the Fig. 4 adder chain consumes
// them: every raw word shifted once, at build, to the common binary point —
// the finer of the two formats' grids, alignedSum's alignment — so a steered
// delay is two additions on words already in place, then one rounding.
type operands struct {
	frac int     // fractional bits of the common binary point
	x, y []int32 // corrections in CorrTables order; shared between transmits
	ref  []int32 // folded reference in RefTable order; one per transmit
}

func newOperands(ref *RefTable, corr *CorrTables) *operands {
	frac := max(ref.Fmt.FracBits, corr.Fmt.FracBits)
	shift := uint(frac - corr.Fmt.FracBits)
	o := operands{frac: frac, x: align(corr.xraws, shift), y: align(corr.yraws, shift)}
	return o.withRef(ref)
}

// withRef returns a copy of o around another transmit's reference table,
// sharing the corrections.
func (o operands) withRef(ref *RefTable) *operands {
	o.ref = align(ref.raws, uint(o.frac-ref.Fmt.FracBits))
	return &o
}

func align(raws []int64, shift uint) []int32 {
	out := make([]int32, len(raws))
	for i, r := range raws {
		out[i] = int32(r << shift)
	}
	return out
}

// narrowProven reports whether the formats alone prove the int32 row kernel
// (steerRow) exact and its int16 store unsaturated. Table words are
// saturated to their formats at build, so a reference is at most
// 2^RefFmt.IntBits samples in magnitude and each of the two corrections at
// most 2^CorrFmt.IntBits: for u13.5 + 2·s13.4 the sum stays within 24 576 <
// 32 767, no rounded index can reach an int16 rail, and the aligned sum plus
// its rounding bias is far inside int32. A pair with no fractional bit to
// round away, or whose bound admits saturation or overflows int32, is not
// proven and fills through the scalar law instead.
func narrowProven(ref, corr fixed.Format) bool {
	frac := max(ref.FracBits, corr.FracBits)
	bound := int64(1)<<ref.IntBits + 2<<corr.IntBits // |sum| in samples
	return 1 <= frac && frac <= 30 && bound <= math.MaxInt16 &&
		bound<<frac+1<<(frac-1) <= math.MaxInt32
}

// Name implements delay.Provider.
func (p *Provider) Name() string {
	if p.UseFixed {
		return fmt.Sprintf("tablesteer-%db", p.Cfg.RefFmt.Bits())
	}
	return "tablesteer"
}

// DelaySamples implements delay.Provider: reference entry plus the two
// corrections, in fractional sample units (the final rounding to an echo-
// buffer index is delay.Index, as in the hardware's rounding adders).
func (p *Provider) DelaySamples(it, ip, id, ei, ej int) float64 {
	qx := foldIndex(ei, p.Cfg.Arr.NX)
	qy := foldIndex(ej, p.Cfg.Arr.NY)
	if p.UseFixed {
		ref := p.Ref.RawAt(qx, qy, id)                         // frac = RefFmt.FracBits
		xc, yc := p.Corr.XRaw(ei, it, ip), p.Corr.YRaw(ej, ip) // frac = CorrFmt.FracBits
		sum, frac := alignedSum(ref, xc+yc, p.Cfg.RefFmt.FracBits, p.Cfg.CorrFmt.FracBits)
		return math.Ldexp(float64(sum), -frac)
	}
	return p.Ref.At(qx, qy, id) + p.Corr.X(ei, it, ip) + p.Corr.Y(ej, ip)
}

// alignedSum adds a reference word (refFrac fractional bits) and a combined
// correction word (corrFrac fractional bits) at the finer of the two grids,
// exactly as the Fig. 4 rounding adders align their binary points. It
// returns the raw sum and its fractional-bit count.
func alignedSum(refRaw, corrRaw int64, refFrac, corrFrac int) (sum int64, frac int) {
	frac = refFrac
	if corrFrac > frac {
		frac = corrFrac
	}
	return refRaw<<uint(frac-refFrac) + corrRaw<<uint(frac-corrFrac), frac
}

// WithTransmit implements delay.TransmitProvider: a new folded reference
// table is built for the transmit's origin (the §V "multiple precalculated
// delay tables" extension, at the extra cost of one reference table per
// transmit), while the correction tables — which encode only the
// receive-side steering plane — are shared with p, as they would be in
// hardware. The folding symmetry requires the
// origin on the z axis; off-axis transmits are rejected.
func (p *Provider) WithTransmit(tx delay.Transmit) (delay.Provider, error) {
	if tx.Origin.X != 0 || tx.Origin.Y != 0 {
		return nil, fmt.Errorf("tablesteer: transmit origin must lie on the z axis for 4× folding, got %v",
			tx.Origin)
	}
	cfg := p.Cfg
	cfg.OriginZ = tx.Origin.Z
	np := &Provider{Cfg: cfg, Ref: BuildRefTable(cfg), Corr: p.Corr, UseFixed: p.UseFixed, fused: p.fused}
	if p.narrow != nil {
		np.narrow = p.narrow.withRef(np.Ref)
	}
	return np, nil
}

// StorageBits returns the combined table footprint (ref + corrections).
func (p *Provider) StorageBits() int { return p.Ref.StorageBits() + p.Corr.StorageBits() }

// SteeredSlice materializes the Fig. 3(d)-style compensated delay table for
// one steering direction (it, ip): the per-quadrant-element delay at depth d
// after applying the plane correction, for the positive-quadrant elements.
// Row-major [qy][qx] at the given depth.
func (p *Provider) SteeredSlice(it, ip, id int) []float64 {
	out := make([]float64, p.Ref.QX*p.Ref.QY)
	for jy := 0; jy < p.Ref.QY; jy++ {
		ej := foldSource(jy, p.Cfg.Arr.NY)
		for jx := 0; jx < p.Ref.QX; jx++ {
			ei := foldSource(jx, p.Cfg.Arr.NX)
			out[jy*p.Ref.QX+jx] = p.DelaySamples(it, ip, id, ei, ej)
		}
	}
	return out
}

// CorrectionPlane materializes the Fig. 3(c) data: the steering correction
// in seconds over the full aperture for steering direction (it, ip).
// Row-major [ej][ei].
func (p *Provider) CorrectionPlane(it, ip int) []float64 {
	out := make([]float64, p.Cfg.Arr.NX*p.Cfg.Arr.NY)
	for ej := 0; ej < p.Cfg.Arr.NY; ej++ {
		for ei := 0; ei < p.Cfg.Arr.NX; ei++ {
			samples := p.Corr.X(ei, it, ip) + p.Corr.Y(ej, ip)
			out[ej*p.Cfg.Arr.NX+ei] = p.Cfg.Conv.SamplesToSeconds(samples)
		}
	}
	return out
}
