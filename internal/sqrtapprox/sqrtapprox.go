// Package sqrtapprox implements the piecewise-linear square-root
// approximation at the heart of the TABLEFREE delay generator (§IV, Fig. 2
// of the paper): √α is replaced by c1·α + c0 with per-segment coefficients
// chosen so the absolute error stays below a configurable δ (0.25 delay
// samples in the paper, which reports ~70 segments for the Table I geometry).
//
// Segments are fitted with the equioscillation construction for a concave
// function: on [a, b] the chord from (a, √a) to (b, √b) under-estimates √
// by at most E = (√b−√a)²/(4(√a+√b)); raising the chord by E/2 yields the
// best uniform linear approximation with max error E/2. The greedy builder
// extends each segment to the largest b with E/2 = δ, which has the closed
// form √b = √a + 4δ + 4√(δ(√a+δ)).
//
// The package also provides the incremental segment Tracker: because the
// argument changes only slightly between consecutive focal points, the
// hardware never searches for the right segment — it compares against the
// current segment's bounds and steps by at most one per evaluation
// (the "Ctrl" block with two ≥ comparators in Fig. 2a).
package sqrtapprox

import (
	"fmt"
	"math"
	"sort"

	"ultrabeam/internal/fixed"
)

// Segment is one linear piece: √α ≈ C1·α + C0 for α ∈ [Lo, Hi).
type Segment struct {
	Lo, Hi float64
	C1, C0 float64
}

// Approx is a complete piecewise-linear approximation of √ on [0, Max].
type Approx struct {
	Delta    float64 // guaranteed max |√α − eval(α)|
	Max      float64 // upper end of the approximated domain
	Segments []Segment
}

// New builds the approximation for arguments in [0, max] with error bound
// delta. It panics on non-positive parameters (configuration bugs).
func New(max, delta float64) *Approx {
	if max <= 0 || delta <= 0 {
		panic(fmt.Sprintf("sqrtapprox: invalid domain max=%v delta=%v", max, delta))
	}
	a := &Approx{Delta: delta, Max: max}
	u := 0.0 // √ of current segment start
	lo := 0.0
	for lo < max {
		v := u + 4*delta + 4*math.Sqrt(delta*(u+delta))
		hi := v * v
		if hi > max {
			hi = max
			v = math.Sqrt(max)
		}
		a.Segments = append(a.Segments, fitSegment(lo, hi, u, v))
		lo, u = hi, v
	}
	return a
}

// fitSegment returns the equioscillating best linear fit of √ on [lo, hi].
func fitSegment(lo, hi, sqrtLo, sqrtHi float64) Segment {
	if hi <= lo {
		panic("sqrtapprox: empty segment")
	}
	c1 := (sqrtHi - sqrtLo) / (hi - lo) // chord slope = 1/(√lo+√hi)
	chordErr := (sqrtHi - sqrtLo) * (sqrtHi - sqrtLo) / (4 * (sqrtLo + sqrtHi))
	// chord(α) = sqrtLo + c1(α−lo); raise by half the max gap.
	c0 := sqrtLo - c1*lo + chordErr/2
	return Segment{Lo: lo, Hi: hi, C1: c1, C0: c0}
}

// NumSegments returns the piece count (≈70 at the paper's operating point).
func (a *Approx) NumSegments() int { return len(a.Segments) }

// Find locates the segment containing α by binary search. Arguments outside
// [0, Max] clamp to the first/last segment, and a NaN to the first: the
// result is always a valid index.
func (a *Approx) Find(alpha float64) int {
	if !(alpha > 0) {
		return 0
	}
	if alpha >= a.Max {
		return len(a.Segments) - 1
	}
	return sort.Search(len(a.Segments), func(i int) bool { return a.Segments[i].Hi > alpha })
}

// Eval returns the piecewise-linear approximation of √alpha.
func (a *Approx) Eval(alpha float64) float64 {
	s := a.Segments[a.Find(alpha)]
	return s.C1*alpha + s.C0
}

// MaxObservedError scans the domain with n probe points per segment and
// returns the largest |√α − Eval(α)| — a verification aid for tests and for
// the Fig. 2(b) error-profile experiment.
func (a *Approx) MaxObservedError(perSegment int) float64 {
	worst := 0.0
	for _, s := range a.Segments {
		for k := 0; k <= perSegment; k++ {
			alpha := s.Lo + (s.Hi-s.Lo)*float64(k)/float64(perSegment)
			if e := math.Abs(math.Sqrt(alpha) - (s.C1*alpha + s.C0)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// ErrorProfile samples the signed approximation error at n uniformly spaced
// arguments — the data series of Fig. 2(b).
func (a *Approx) ErrorProfile(n int) (alphas, errs []float64) {
	alphas = make([]float64, n)
	errs = make([]float64, n)
	for i := 0; i < n; i++ {
		alpha := a.Max * float64(i) / float64(n-1)
		alphas[i] = alpha
		errs[i] = (a.Eval(alpha)) - math.Sqrt(alpha)
	}
	return alphas, errs
}

// FixedConfig selects the fixed-point formats of the hardware datapath:
// the argument register, the slope and intercept LUT entries, and the
// output accumulator. The defaults (DefaultFixedConfig) model the 18-bit
// FPGA datapath the paper synthesizes.
type FixedConfig struct {
	ArgFrac    int // fractional bits kept on the argument α
	SlopeFrac  int // fractional bits of the C1 LUT entries
	OffsetFrac int // fractional bits of the C0 LUT entries
	OutFrac    int // fractional bits of the multiply-accumulate result
}

// DefaultFixedConfig mirrors the paper's datapath: α is an integer number of
// squared sample units (it is a sum of squared integer sample offsets, so no
// fractional bits exist to keep), C1 needs many fractional bits because the
// slope spans (0, 0.5], and the output keeps 6 fractional bits before the
// final rounding to a selection index.
func DefaultFixedConfig() FixedConfig {
	return FixedConfig{ArgFrac: 0, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6}
}

// FixedApprox is the quantized-datapath version of Approx: coefficients are
// stored in fixed point and evaluation uses integer multiply/add, modelling
// the Fig. 2(a) circuit (one multiplier, one adder, two coefficient LUTs).
//
// The hardware evaluates relative to the segment start — √α ≈ C1·(α−Lo) +
// V0 with V0 the line value at Lo — so the multiplier operand is the short
// in-segment offset (≤ 21 bits at the paper geometry) rather than the full
// 25-bit absolute argument, which both narrows the multiplier and keeps the
// slope-quantization error from being amplified by the absolute argument.
type FixedApprox struct {
	Base *Approx
	Cfg  FixedConfig
	lo   []int64 // segment start, scaled by 2^ArgFrac
	c1   []int64 // slope words, scaled by 2^SlopeFrac
	v0   []int64 // line value at segment start, scaled by 2^OffsetFrac
	ints *IntDatapath
}

// NewFixed quantizes an Approx into a hardware datapath model.
func NewFixed(a *Approx, cfg FixedConfig) *FixedApprox {
	n := len(a.Segments)
	f := &FixedApprox{Base: a, Cfg: cfg,
		lo: make([]int64, n), c1: make([]int64, n), v0: make([]int64, n)}
	for i, s := range a.Segments {
		f.lo[i] = int64(math.Round(math.Ldexp(s.Lo, cfg.ArgFrac)))
		f.c1[i] = int64(math.Round(math.Ldexp(s.C1, cfg.SlopeFrac)))
		f.v0[i] = int64(math.Round(math.Ldexp(s.C1*s.Lo+s.C0, cfg.OffsetFrac)))
	}
	f.ints = newIntDatapath(f)
	return f
}

// EvalSeg evaluates segment seg at argument alpha through the fixed-point
// datapath and returns the result as float (scaled back from OutFrac).
func (f *FixedApprox) EvalSeg(seg int, alpha float64) float64 {
	argRaw := int64(math.Round(math.Ldexp(alpha, f.Cfg.ArgFrac)))
	dRaw := argRaw - f.lo[seg] // in-segment offset; may be slightly negative at clamp
	// Multiplier: (argFrac + slopeFrac) fractional bits on the product.
	prod := dRaw * f.c1[seg]
	prodFrac := f.Cfg.ArgFrac + f.Cfg.SlopeFrac
	// Align product and offset to OutFrac with round-to-nearest shifts.
	p := shiftRound(prod, prodFrac-f.Cfg.OutFrac)
	o := shiftRound(f.v0[seg], f.Cfg.OffsetFrac-f.Cfg.OutFrac)
	return math.Ldexp(float64(p+o), -f.Cfg.OutFrac)
}

// Eval finds the segment (binary search — functionally identical to what
// the incremental Tracker converges to) and evaluates the fixed datapath.
func (f *FixedApprox) Eval(alpha float64) float64 {
	return f.EvalSeg(f.Base.Find(alpha), alpha)
}

// shiftRound shifts right by n (rounding to nearest, ties away from zero)
// or left by −n.
func shiftRound(x int64, n int) int64 {
	if n <= 0 {
		return x << uint(-n)
	}
	half := int64(1) << uint(n-1)
	if x >= 0 {
		return (x + half) >> uint(n)
	}
	return -((-x + half) >> uint(n))
}

// SegOp is one segment packed for the integer datapath: the float bounds
// the segment cursor compares against, and the three integer operands of
// the multiply-add with the offset already aligned to OutFrac.
type SegOp struct {
	Lo, Hi float64 // Segment.Lo/Hi, the cursor's comparands
	LoRaw  int64   // segment start, scaled by 2^ArgFrac
	C1     int64   // slope word, scaled by 2^SlopeFrac
	V0     int64   // line value at segment start, scaled by 2^OutFrac
}

// IntDatapath is EvalSeg with everything that depends only on the
// FixedConfig done once: the shift amounts, their rounding halves and the
// per-segment offset alignment. What is left per argument is one
// float→integer rounding, a subtract, a multiply, a rounding shift and an
// add (Raw), all on int64, with results in raw OutFrac units so that two
// legs add as integers and round once more to a sample index (Index).
// Block generators inline these into their fill loops; EvalSeg remains the
// specification and Raw(op, α) == EvalSeg(seg, α)·2^OutFrac for every α ≥ 0.
type IntDatapath struct {
	Ops       []SegOp
	argScale  float64 // 2^ArgFrac
	prodShift uint    // ArgFrac + SlopeFrac − OutFrac
	prodHalf  int64   // 1 << (prodShift−1)
	outShift  uint    // OutFrac
	outHalf   int64   // 1 << (OutFrac−1)
	lanes     *Lanes  // nil unless proveLanes holds
}

// newIntDatapath packs f for the integer form, or returns nil when the
// config is one it does not cover: both roundings must be genuine right
// shifts (product shift and OutFrac positive) and the argument scaling a
// multiplication by a power of two ≥ 1.
func newIntDatapath(f *FixedApprox) *IntDatapath {
	cfg := f.Cfg
	prodShift := cfg.ArgFrac + cfg.SlopeFrac - cfg.OutFrac
	if cfg.ArgFrac < 0 || prodShift <= 0 || prodShift > 62 || cfg.OutFrac <= 0 || cfg.OutFrac > 62 {
		return nil
	}
	d := &IntDatapath{
		Ops:       make([]SegOp, len(f.lo)),
		argScale:  math.Ldexp(1, cfg.ArgFrac),
		prodShift: uint(prodShift),
		prodHalf:  1 << uint(prodShift-1),
		outShift:  uint(cfg.OutFrac),
		outHalf:   1 << uint(cfg.OutFrac-1),
	}
	for i, s := range f.Base.Segments {
		d.Ops[i] = SegOp{Lo: s.Lo, Hi: s.Hi, LoRaw: f.lo[i], C1: f.c1[i],
			V0: shiftRound(f.v0[i], cfg.OffsetFrac-cfg.OutFrac)}
	}
	d.lanes, _ = d.proveLanes()
	return d
}

// Integer returns the hoisted integer form of the datapath, or nil when
// the FixedConfig is outside what it covers (callers then stay on
// EvalSeg).
func (f *FixedApprox) Integer() *IntDatapath { return f.ints }

// Walk is the Fig. 2(a) tracker's step rule on a SegOp table: from segment
// cur, step up while α ≥ Hi and down while α < Lo. On ascending, abutting
// segments (every table New builds) it lands on Find(α) from any start, for
// every α but NaN, which leaves cur where it stands. Block fills carry cur
// from one argument to the next, so a step is rare and a search never runs.
func Walk(ops []SegOp, cur int, alpha float64) int {
	last := len(ops) - 1
	for cur < last && alpha >= ops[cur].Hi {
		cur++
	}
	for cur > 0 && alpha < ops[cur].Lo {
		cur--
	}
	return cur
}

// Raw evaluates segment op at argument alpha ≥ 0 and returns the result in
// raw OutFrac units: EvalSeg before its final scaling back to float.
func (d *IntDatapath) Raw(op *SegOp, alpha float64) int64 {
	return roundShift((roundNonNeg(alpha*d.argScale)-op.LoRaw)*op.C1, d.prodHalf, d.prodShift) + op.V0
}

// Index rounds a raw OutFrac value (one leg, or a sum of legs) to the
// nearest integer sample, ties away from zero — math.Round of the float the
// raw value stands for.
func (d *IntDatapath) Index(raw int64) int64 {
	return roundShift(raw, d.outHalf, d.outShift)
}

// Lanes is the licence a SIMD body needs to run Raw and Index several
// arguments at a time in 32-bit-wide integer lanes, with the constants it
// then works from. It exists only when proveLanes holds for the datapath.
// It covers a plane of arguments in [ArgMin, ArgMax] whose transmit leg tx
// satisfies 0 ≤ tx < LaneTxLimit.
type Lanes struct {
	ArgMin    float64 // 0.5/2^ArgFrac: from here up, ⌊fl(α·2^ArgFrac + 0.5)⌋ is the argument's rounding
	ArgMax    float64 // the domain's upper end
	ArgScale  float64 // 2^ArgFrac
	ProdHalf  int64   // rounding half of the product shift
	ProdShift uint64
	OutHalf   int64 // rounding half of the index shift
	OutShift  uint64
}

// Lanes returns the vector licence, or nil when the datapath fails a clause
// of proveLanes (callers then stay on Raw/Index).
func (d *IntDatapath) Lanes() *Lanes { return d.lanes }

// LaneTxLimit bounds the raw leg a lane body may add to a receive result
// before Index: tx < LaneTxLimit keeps the two-leg sum plus the rounding
// half inside int32 (proveLanes holds every receive result to the same
// limit less OutHalf).
const LaneTxLimit = 1 << 30

// proveLanes checks, once per datapath, everything a lane body assumes
// beyond Raw/Index themselves. Writing t = Round(α·2^ArgFrac) and j for α's
// segment, for every 0 ≤ α ≤ ArgMax:
//
//   - segments ascend and abut (Hi[j] == Lo[j+1]) from Lo[0] ≤ 0, so "the
//     last j with α ≥ Lo[j]" is the segment the cursor walk lands on from
//     any start, and it is monotone in α;
//   - LoRaw[j] == Round(Lo[j]·2^ArgFrac) ≥ 0 and the scaled domain end is
//     below 2^31: rounding is monotone, so 0 ≤ t − LoRaw[j] ≤ HiRaw[j] −
//     LoRaw[j] < 2^31 — t converts to int32 and the offset is an unsigned
//     32-bit multiplier operand;
//   - 0 ≤ C1 < 2^31: the product is an unsigned 32×32 multiply, below 2^62,
//     so adding the rounding half cannot wrap and a logical shift is the
//     arithmetic one;
//   - every V0 is non-negative, and the largest receive result any segment
//     can produce, plus OutHalf, stays within LaneTxLimit, so with
//     tx < LaneTxLimit the Index stage fits int32.
//
// Two identities then license the bodies' cheaper arithmetic, each under a
// clause the caller checks per plane:
//
//   - rounding: for 0.5 ≤ x < 2^52, ⌊fl(x + 0.5)⌋ = roundNonNeg(x), and
//     x = α·2^ArgFrac is an exact scaling, so a plane whose arguments are
//     all ≥ ArgMin rounds with one add (or fused multiply-add) and a
//     round-down conversion. Inside a binade the sum is exact; where it
//     crosses into the next binade, 2^k, the sum lies in [2^k, 2^k + 0.5),
//     so its rounding cannot reach 2^k + 1. Below 0.5 the identity fails
//     at 0.49999999999999994 alone, which the clause excludes;
//   - Index: the product term and V0 are ≥ 0 (the clauses above), so a
//     receive result is too, and with tx ≥ 0 the two-leg sum is
//     non-negative: Index is (sum + OutHalf) >> OutShift, a logical shift
//     with no sign fix.
//
// The returned error names the first clause that fails.
func (d *IntDatapath) proveLanes() (*Lanes, error) {
	const lim = 1 << 31
	ops := d.Ops
	if len(ops) == 0 {
		return nil, fmt.Errorf("no segments")
	}
	if ops[0].Lo > 0 {
		return nil, fmt.Errorf("segment 0 starts at %v > 0", ops[0].Lo)
	}
	last := len(ops) - 1
	endRaw := math.Round(ops[last].Hi * d.argScale)
	if !(endRaw < lim) {
		return nil, fmt.Errorf("scaled domain end %v is not below 2^31", endRaw)
	}
	for j, op := range ops {
		hiRaw := int64(endRaw)
		if j < last {
			if ops[j+1].Lo != op.Hi {
				return nil, fmt.Errorf("segment %d ends at %v, segment %d starts at %v", j, op.Hi, j+1, ops[j+1].Lo)
			}
			hiRaw = ops[j+1].LoRaw
		}
		if !(op.Lo < op.Hi) {
			return nil, fmt.Errorf("segment %d [%v, %v) does not ascend", j, op.Lo, op.Hi)
		}
		if op.LoRaw < 0 || float64(op.LoRaw) != math.Round(op.Lo*d.argScale) {
			return nil, fmt.Errorf("segment %d: LoRaw %d is not the non-negative rounding of %v·%v", j, op.LoRaw, op.Lo, d.argScale)
		}
		if op.C1 < 0 || op.C1 >= lim {
			return nil, fmt.Errorf("segment %d: slope word %d outside [0, 2^31)", j, op.C1)
		}
		if op.V0 < 0 {
			return nil, fmt.Errorf("segment %d: V0 %d is negative", j, op.V0)
		}
		// The product term is below 2^62 by the clauses above; holding V0
		// to the limit first keeps the sum itself from wrapping.
		recv := ((hiRaw-op.LoRaw)*op.C1 + d.prodHalf) >> d.prodShift
		if op.V0 >= LaneTxLimit || recv+op.V0+d.outHalf > LaneTxLimit {
			return nil, fmt.Errorf("segment %d: receive result bound %d + %d plus rounding half %d exceeds 2^30", j, recv, op.V0, d.outHalf)
		}
	}
	return &Lanes{
		ArgMin: 0.5 / d.argScale, ArgMax: ops[last].Hi, ArgScale: d.argScale,
		ProdHalf: d.prodHalf, ProdShift: uint64(d.prodShift),
		OutHalf: d.outHalf, OutShift: uint64(d.outShift),
	}, nil
}

// roundNonNeg is math.Round for 0 ≤ x < 2^63 without the library call:
// truncate, then step up when the discarded fraction reaches one half. The
// fraction x − ⌊x⌋ is exact in float64, so ties and the value just below a
// tie (0.49999999999999994, which ⌊x+0.5⌋ gets wrong) round as Round does.
func roundNonNeg(x float64) int64 {
	t := int64(x)
	if x-float64(t) >= 0.5 {
		t++
	}
	return t
}

// roundShift is shiftRound for n > 0 with half = 1<<(n−1) supplied by the
// caller and the sign branch folded into the bias: x>>63 is −1 for negative
// x, and ⌊(x + half − 1) / 2ⁿ⌋ = −⌊(−x + half) / 2ⁿ⌋ there.
func roundShift(x, half int64, n uint) int64 {
	return (x + half + x>>63) >> (n & 63)
}

// LUTBits returns the total coefficient-storage footprint in bits, assuming
// each C1 entry needs slopeBits and each C0 entry offsetBits — the quantity
// that becomes distributed-RAM LUT cost in the FPGA model.
func (f *FixedApprox) LUTBits(slopeBits, offsetBits int) int {
	return len(f.c1) * (slopeBits + offsetBits)
}

// Tracker is the incremental segment-selection state machine of Fig. 2(a):
// it remembers the current segment and, on each new argument, steps up or
// down segment-by-segment until the argument is inside the bounds. Steps
// records the total number of boundary crossings, the quantity that costs
// extra cycles when a sweep jumps discontinuously (e.g. at scanline
// restarts).
type Tracker struct {
	A       *Approx
	Cur     int
	Steps   int // cumulative segment steps
	MaxJump int // largest single-transition step count observed
}

// NewTracker starts a tracker at segment 0.
func NewTracker(a *Approx) *Tracker { return &Tracker{A: a} }

// Seek advances the tracker to the segment containing alpha and returns the
// segment index. The cost (number of single-segment steps) is accumulated.
func (t *Tracker) Seek(alpha float64) int {
	jump := 0
	for t.Cur < len(t.A.Segments)-1 && alpha >= t.A.Segments[t.Cur].Hi {
		t.Cur++
		jump++
	}
	for t.Cur > 0 && alpha < t.A.Segments[t.Cur].Lo {
		t.Cur--
		jump++
	}
	t.Steps += jump
	if jump > t.MaxJump {
		t.MaxJump = jump
	}
	return t.Cur
}

// Reset returns the tracker to segment 0 without clearing statistics.
func (t *Tracker) Reset() { t.Cur = 0 }

// SlopeFormat reports a fixed.Format able to hold every slope with the
// given fractional bits; slopes lie in (0, 0.5] so no integer bits needed.
func SlopeFormat(fracBits int) fixed.Format {
	return fixed.Format{IntBits: 0, FracBits: fracBits}
}
