// Package tablefree implements the paper's first delay-generation
// architecture (§IV): no delay tables at all — every two-way delay is
// computed on the fly by a small per-element unit built around the
// piecewise-linear square-root approximation of Fig. 2.
//
// Geometry decomposition (§IV-B): for focal point S and element D = (xD,
// yD, 0), the receive argument |S−D|² = (Sx−xD)² + (Sy−yD)² + Sz² splits
// into a z term that depends only on S, an x term computable once per
// transducer column and a y term once per row — so each element-specific
// unit performs just two additions and one approximated square root. The
// transmit leg |S−O| is computed once per point and shared by all units.
//
// The package provides a float "ideal PWL" provider and a fixed-point
// datapath provider (the synthesized hardware, and the one with a native
// block fill), a sweep simulator that counts segment-tracker stalls, and
// the throughput/frame-rate law the paper quotes ("about 1 fps per 20 MHz
// of operating frequency").
package tablefree

import (
	"fmt"
	"math"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/sqrtapprox"
	"ultrabeam/internal/xdcr"
)

// Config assembles a TABLEFREE delay generator.
type Config struct {
	Vol    scan.Volume
	Arr    xdcr.Array
	Origin geom.Vec3       // emission reference O (array center by default)
	Conv   delay.Converter // physical constants c, fs
	Delta  float64         // PWL error bound per √ term, in samples (paper: 0.25)
	Fixed  sqrtapprox.FixedConfig
}

// DefaultDelta is the paper's per-term approximation bound (±0.25 samples).
const DefaultDelta = 0.25

// Provider generates delays through the TABLEFREE architecture. It
// implements delay.Provider. UseFixed selects between the ideal float PWL
// (algorithmic error only) and the quantized hardware datapath.
type Provider struct {
	Cfg      Config
	Approx   *sqrtapprox.Approx
	FixedDP  *sqrtapprox.FixedApprox
	UseFixed bool

	// Precomputed geometry in sample units.
	elemX, elemY []float64 // element coordinates, samples
	originS      geom.Vec3 // origin, samples

	// The four-lane guard's reading of the element axes: 1/pitch of each,
	// and whether both are pitch grids (pitchInv), without which no voxel
	// reaches the four-lane body.
	invPitchX, invPitchY float64
	pitchGrid            bool

	// Per-axis factors of the Eq. (5) parametrization, for the block fill.
	sinTheta, cosTheta []float64
	sinPhi, cosPhi     []float64

	// The element plane's eight-slot lane groups (nil past 16×16), shared
	// read-only with every WithTransmit-derived unit: the aperture is theirs.
	perm *planePerm
}

// Provider fills blocks natively (FillNappe16).
var _ delay.BlockProvider = (*Provider)(nil)

// New builds the provider, sizing the PWL domain from the configuration's
// worst-case one-way distance.
func New(cfg Config) *Provider {
	return newProvider(cfg, newPlanePerm(cfg.Arr.NX, cfg.Arr.NY))
}

// newProvider is New with the plane's permute table supplied.
func newProvider(cfg Config, perm *planePerm) *Provider {
	if cfg.Delta <= 0 {
		cfg.Delta = DefaultDelta
	}
	if (cfg.Fixed == sqrtapprox.FixedConfig{}) {
		cfg.Fixed = sqrtapprox.DefaultFixedConfig()
	}
	maxDist := maxOneWaySamples(cfg)
	ap := sqrtapprox.New(maxDist*maxDist, cfg.Delta)
	p := &Provider{
		Cfg:     cfg,
		Approx:  ap,
		FixedDP: sqrtapprox.NewFixed(ap, cfg.Fixed),
		elemX:   make([]float64, cfg.Arr.NX),
		elemY:   make([]float64, cfg.Arr.NY),
		originS: cfg.Origin.Scale(cfg.Conv.Fs / cfg.Conv.C),
		perm:    perm,
	}
	for i := range p.elemX {
		p.elemX[i] = cfg.Conv.MetersToSamples(cfg.Arr.ElementX(i))
	}
	for j := range p.elemY {
		p.elemY[j] = cfg.Conv.MetersToSamples(cfg.Arr.ElementY(j))
	}
	p.provePitch()
	p.sinTheta, p.cosTheta = sinCos(cfg.Vol.Theta)
	p.sinPhi, p.cosPhi = sinCos(cfg.Vol.Phi)
	return p
}

// sinCos tabulates sin and cos at every node of an angular axis.
func sinCos(ax geom.Grid) (sin, cos []float64) {
	sin, cos = make([]float64, ax.N), make([]float64, ax.N)
	for i := range sin {
		sin[i], cos[i] = math.Sin(ax.At(i)), math.Cos(ax.At(i))
	}
	return sin, cos
}

// maxOneWaySamples bounds the largest one-way path (transmit or receive) in
// sample units: deepest point at extreme steering to the farthest aperture
// corner, plus the origin offset.
func maxOneWaySamples(cfg Config) float64 {
	r := cfg.Conv.MetersToSamples(cfg.Vol.Depth.Max)
	halfDiag := cfg.Conv.MetersToSamples(math.Hypot(cfg.Arr.Width(), cfg.Arr.Height()) / 2)
	o := cfg.Conv.MetersToSamples(cfg.Origin.Norm())
	return r + halfDiag + o + 1
}

// Name implements delay.Provider.
func (p *Provider) Name() string {
	if p.UseFixed {
		return "tablefree-fixed"
	}
	return "tablefree"
}

// focalSamples returns S for grid node (it, ip, id) in sample units.
func (p *Provider) focalSamples(it, ip, id int) geom.Vec3 {
	r := p.Cfg.Conv.MetersToSamples(p.Cfg.Vol.Depth.At(id))
	return geom.SphericalToCartesian(r, p.Cfg.Vol.Theta.At(it), p.Cfg.Vol.Phi.At(ip))
}

// args returns the transmit and receive square-root arguments (sample²).
func (p *Provider) args(it, ip, id, ei, ej int) (argTx, argRx float64) {
	s := p.focalSamples(it, ip, id)
	dx := s.X - p.originS.X
	dy := s.Y - p.originS.Y
	dz := s.Z - p.originS.Z
	argTx = dx*dx + dy*dy + dz*dz
	// Receive decomposition: x term per column, y term per row, z per point.
	xt := s.X - p.elemX[ei]
	yt := s.Y - p.elemY[ej]
	argRx = xt*xt + yt*yt + s.Z*s.Z
	return argTx, argRx
}

// DelaySamples implements delay.Provider: the sum of two approximated
// square roots (Eq. 3), already in sample units.
func (p *Provider) DelaySamples(it, ip, id, ei, ej int) float64 {
	argTx, argRx := p.args(it, ip, id, ei, ej)
	if p.UseFixed {
		return p.FixedDP.Eval(argTx) + p.FixedDP.Eval(argRx)
	}
	return p.Approx.Eval(argTx) + p.Approx.Eval(argRx)
}

// NumSegments reports the PWL piece count of the underlying approximation.
func (p *Provider) NumSegments() int { return p.Approx.NumSegments() }

// WithTransmit implements delay.TransmitProvider: TABLEFREE computes the
// transmit leg on the fly (one shared √ per focal point, §IV-B), so any
// emission origin is representable — the derived unit is rebuilt with the
// PWL domain re-sized for the new worst-case path, exactly as New would
// size it, and keeps the receiver's fixed/float datapath selection and its
// plane permute table.
func (p *Provider) WithTransmit(tx delay.Transmit) (delay.Provider, error) {
	cfg := p.Cfg
	cfg.Origin = tx.Origin
	np := newProvider(cfg, p.perm)
	np.UseFixed = p.UseFixed
	return np, nil
}

// SweepResult aggregates the cost of one per-element unit following a full
// volume sweep with the incremental segment tracker.
type SweepResult struct {
	Points       int // focal points evaluated
	TrackerSteps int // total segment-boundary crossings
	StallCycles  int // crossings beyond one per evaluation (pipeline stalls)
	MaxJump      int // worst single-evaluation segment jump
}

// SimulateSweep runs the receive-path segment tracker of the unit serving
// element (ei, ej) through the whole volume in the given order and returns
// the tracking cost. The paper's key claim (§IV-B) is that sweeps make
// segment transitions gradual, so StallCycles stays negligible.
func (p *Provider) SimulateSweep(order scan.Order, ei, ej int) SweepResult {
	tr := sqrtapprox.NewTracker(p.Approx)
	var res SweepResult
	prevSteps := 0
	p.Cfg.Vol.Walk(order, func(ix scan.Index) {
		_, argRx := p.args(ix.Theta, ix.Phi, ix.Depth, ei, ej)
		tr.Seek(argRx)
		res.Points++
		jump := tr.Steps - prevSteps
		prevSteps = tr.Steps
		if jump > 1 {
			res.StallCycles += jump - 1
		}
	})
	res.TrackerSteps = tr.Steps
	res.MaxJump = tr.MaxJump
	return res
}

// StallFraction is StallCycles per point — the sweep-order-dependent
// overhead the co-design discussion in §II-A alludes to.
func (r SweepResult) StallFraction() float64 {
	if r.Points == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.Points)
}

// UnitCost describes the arithmetic resources of one per-element delay unit
// (Fig. 2a): it feeds the FPGA model and the paper's replication argument
// ("this unit must be instantiated once per transducer element").
type UnitCost struct {
	Adders      int // element-specific additions per point (2, §IV-B)
	Multipliers int // PWL slope multiplier (1)
	Comparators int // segment-boundary comparators (2: ≥ upper, < lower)
	SegLUTBits  int // coefficient storage (C1 + V0 + bounds per segment)
}

// Cost returns the per-unit resource census for this provider's PWL size.
func (p *Provider) Cost() UnitCost {
	// Per segment: slope (SlopeFrac bits, no integer part), value-at-start
	// (13 integer + OffsetFrac bits) and the upper bound (25-bit argument).
	slopeBits := p.Cfg.Fixed.SlopeFrac
	offsetBits := 13 + p.Cfg.Fixed.OffsetFrac
	boundBits := 25
	return UnitCost{
		Adders:      2,
		Multipliers: 1,
		Comparators: 2,
		SegLUTBits:  p.NumSegments() * (slopeBits + offsetBits + boundBits),
	}
}

// Throughput is the paper's §IV-B/§VI-B performance law for TABLEFREE.
type Throughput struct {
	ClockHz float64 // achieved operating frequency (167 MHz on Virtex-7 -2)
	Units   int     // instantiated per-element units
	// CyclesPerPointOverhead models pipeline refill, nappe hand-over and
	// summation handshake cycles per focal point beyond the single evaluate
	// cycle. 0.22 calibrates the model to the paper's "1 fps per 20 MHz"
	// rule for the 128×128×1000 volume (20e6 cycles / 16.384e6 points).
	CyclesPerPointOverhead float64
}

// PaperOverhead is the calibrated per-point cycle overhead (see Throughput).
const PaperOverhead = 20e6/16.384e6 - 1

// PeakDelaysPerSecond is Units × Clock: each unit emits one delay per cycle.
func (t Throughput) PeakDelaysPerSecond() float64 {
	return float64(t.Units) * t.ClockHz
}

// FrameRate returns volumes per second for a volume with the given focal-
// point count: each unit walks all points once per frame.
func (t Throughput) FrameRate(points int) float64 {
	cyclesPerFrame := float64(points) * (1 + t.CyclesPerPointOverhead)
	return t.ClockHz / cyclesPerFrame
}

// ClockForFrameRate inverts FrameRate: the clock needed for target fps.
func (t Throughput) ClockForFrameRate(points int, fps float64) float64 {
	return fps * float64(points) * (1 + t.CyclesPerPointOverhead)
}

// String summarizes the law.
func (t Throughput) String() string {
	return fmt.Sprintf("%d units @ %.0f MHz: %.2f Tdelays/s peak",
		t.Units, t.ClockHz/1e6, t.PeakDelaysPerSecond()/1e12)
}
