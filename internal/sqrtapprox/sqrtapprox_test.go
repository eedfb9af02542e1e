package sqrtapprox

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperDomain is the squared one-way distance range of the Table I geometry
// in sample units: the farthest |S−D| is ≈4400 samples one-way.
const (
	paperMaxSqrt = 4400.0
	paperDomain  = paperMaxSqrt * paperMaxSqrt
	paperDelta   = 0.25
)

func paperApprox() *Approx { return New(paperDomain, paperDelta) }

func TestSegmentsTileDomain(t *testing.T) {
	a := paperApprox()
	if a.Segments[0].Lo != 0 {
		t.Error("first segment must start at 0")
	}
	for i := 1; i < len(a.Segments); i++ {
		if a.Segments[i].Lo != a.Segments[i-1].Hi {
			t.Fatalf("gap between segments %d and %d", i-1, i)
		}
	}
	last := a.Segments[len(a.Segments)-1]
	if last.Hi != paperDomain {
		t.Errorf("last segment ends at %v, want %v", last.Hi, paperDomain)
	}
}

func TestErrorBoundHolds(t *testing.T) {
	a := paperApprox()
	if e := a.MaxObservedError(200); e > a.Delta*(1+1e-9) {
		t.Errorf("max error %v exceeds δ=%v", e, a.Delta)
	}
}

func TestSegmentCountMatchesPaper(t *testing.T) {
	// The paper reports ~70 segments for δ = ±0.25 delay samples (§IV-B).
	a := paperApprox()
	n := a.NumSegments()
	if n < 60 || n > 80 {
		t.Errorf("segment count %d outside the paper's ~70 band", n)
	}
	t.Logf("segments = %d (paper: ~70)", n)
}

func TestSegmentCountScalesWithDelta(t *testing.T) {
	// N ≈ √max / (2√δ): quartering δ must roughly double the segment count.
	n1 := New(paperDomain, 0.25).NumSegments()
	n2 := New(paperDomain, 0.0625).NumSegments()
	ratio := float64(n2) / float64(n1)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("δ/4 changed segments by ×%.2f, want ≈2", ratio)
	}
}

func TestEquioscillation(t *testing.T) {
	// Interior segments must err by +δ at both endpoints and ≈ −δ at the
	// tangency point — the signature of the best uniform fit.
	a := paperApprox()
	s := a.Segments[10]
	for _, alpha := range []float64{s.Lo, s.Hi} {
		e := (s.C1*alpha + s.C0) - math.Sqrt(alpha)
		if math.Abs(e-a.Delta) > 1e-9 {
			t.Errorf("endpoint error %v, want +δ=%v", e, a.Delta)
		}
	}
	// Minimum at the tangency α* = ((√lo+√hi)/2)².
	star := (math.Sqrt(s.Lo) + math.Sqrt(s.Hi)) / 2
	e := (s.C1*star*star + s.C0) - star
	if math.Abs(e+a.Delta) > 1e-9 {
		t.Errorf("tangency error %v, want −δ=%v", e, -a.Delta)
	}
}

func TestFindBinarySearch(t *testing.T) {
	a := paperApprox()
	for i, s := range a.Segments {
		mid := (s.Lo + s.Hi) / 2
		if got := a.Find(mid); got != i {
			t.Fatalf("Find(%v) = %d, want %d", mid, got, i)
		}
		if got := a.Find(s.Lo); got != i {
			t.Fatalf("Find(lo of %d) = %d", i, got)
		}
	}
	if a.Find(-5) != 0 {
		t.Error("negative arguments clamp to segment 0")
	}
	if a.Find(2*paperDomain) != a.NumSegments()-1 {
		t.Error("overflow arguments clamp to last segment")
	}
}

func TestEvalProperty(t *testing.T) {
	a := paperApprox()
	f := func(raw uint32) bool {
		alpha := float64(raw) / math.MaxUint32 * paperDomain
		return math.Abs(a.Eval(alpha)-math.Sqrt(alpha)) <= a.Delta*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestErrorProfileShape(t *testing.T) {
	a := paperApprox()
	alphas, errs := a.ErrorProfile(5000)
	if len(alphas) != 5000 || len(errs) != 5000 {
		t.Fatal("bad profile size")
	}
	minE, maxE := slices.Min(errs), slices.Max(errs)
	// Fig. 2(b): error oscillates between −δ and +δ.
	if maxE > a.Delta*(1+1e-9) || minE < -a.Delta*(1+1e-9) {
		t.Errorf("profile range [%v, %v] outside ±δ", minE, maxE)
	}
	if maxE < a.Delta*0.9 || minE > -a.Delta*0.9 {
		t.Errorf("profile range [%v, %v] suspiciously far from ±δ", minE, maxE)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.25}, {100, 0}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v, %v) should panic", bad[0], bad[1])
				}
			}()
			New(bad[0], bad[1])
		}()
	}
}

// fixedWorst is the largest |fixed Eval − ref| over n even steps of the
// paper domain.
func fixedWorst(n int, ref func(alpha float64) float64) (worst float64) {
	f := NewFixed(paperApprox(), DefaultFixedConfig())
	for alpha := 0.0; alpha <= paperDomain; alpha += paperDomain / float64(n) {
		worst = max(worst, math.Abs(f.Eval(alpha)-ref(alpha)))
	}
	return worst
}

func TestFixedApproxCloseToFloat(t *testing.T) {
	// Fixed-point effects add only fractions of an output LSB (2^-6).
	if worst := fixedWorst(3000, paperApprox().Eval); worst > 0.05 {
		t.Errorf("fixed-point deviates from float PWL by %v samples", worst)
	}
}

func TestFixedApproxTotalError(t *testing.T) {
	// Against true sqrt, the fixed datapath stays within δ plus fixed-point
	// slack — the paper's TABLEFREE per-sqrt error story.
	if worst := fixedWorst(5000, math.Sqrt); worst > paperDelta+0.05 {
		t.Errorf("fixed-point total error %v exceeds δ+slack", worst)
	}
}

func TestLUTBits(t *testing.T) {
	a := paperApprox()
	f := NewFixed(a, DefaultFixedConfig())
	if got := f.LUTBits(25, 19); got != a.NumSegments()*(25+19) {
		t.Errorf("LUTBits = %d", got)
	}
}

// TestFindNaNInRange: a NaN argument maps to segment 0, so Find never
// returns an index outside the table and neither Eval indexes past it.
func TestFindNaNInRange(t *testing.T) {
	a := paperApprox()
	if got := a.Find(math.NaN()); got != 0 {
		t.Fatalf("Find(NaN) = %d, want 0", got)
	}
	a.Eval(math.NaN())
	NewFixed(a, DefaultFixedConfig()).Eval(math.NaN())
}

// FuzzFindMatchesCursor holds the segment cursor — Walk on the integer
// datapath's table, and the Tracker on the float one — to Find: from every
// start segment, every finite or infinite argument lands on Find(α), and a
// NaN leaves an index inside the table. The block fills carry that cursor
// for both legs and are held to Find-based Eval through it. Seeds:
// testdata/fuzz (0, −0, ±Inf, NaN, Max), plus each segment's Lo and Hi.
func FuzzFindMatchesCursor(f *testing.F) {
	a := paperApprox()
	ops := NewFixed(a, DefaultFixedConfig()).Integer().Ops
	for i, s := range a.Segments {
		f.Add(s.Lo, uint(i))
		f.Add(s.Hi, uint(i))
	}
	f.Fuzz(func(t *testing.T, alpha float64, start uint) {
		want := a.Find(alpha)
		if want < 0 || want >= len(a.Segments) {
			t.Fatalf("Find(%v) = %d outside [0, %d)", alpha, want, len(a.Segments))
		}
		for cur := range ops {
			cur = (cur + int(start%uint(len(ops)))) % len(ops)
			got := Walk(ops, cur, alpha)
			tr := &Tracker{A: a, Cur: cur}
			seek := tr.Seek(alpha)
			if math.IsNaN(alpha) {
				if got != cur || seek != cur {
					t.Fatalf("NaN from %d: Walk %d, Seek %d; want it to stay", cur, got, seek)
				}
				continue
			}
			if got != want || seek != want {
				t.Fatalf("α=%v from segment %d: Walk %d, Seek %d, Find %d", alpha, cur, got, seek, want)
			}
		}
	})
}

func TestTrackerConvergesLikeFind(t *testing.T) {
	a := paperApprox()
	tr := NewTracker(a)
	// Arbitrary jump pattern: tracker must always land on Find's answer.
	for _, alpha := range []float64{0, 10, 1e6, 5e6, 4e6, 1e7, 2e3, paperDomain, 0} {
		if got, want := tr.Seek(alpha), a.Find(alpha); got != want {
			t.Fatalf("Seek(%v) = %d, want %d", alpha, got, want)
		}
	}
}

func TestTrackerGradualSweepIsCheap(t *testing.T) {
	// §IV-B: transitions across segments are gradual during a sweep, so the
	// tracker steps at most one segment per evaluation. The physical sweep
	// advances the *distance* (√α) smoothly — sub-sample increments between
	// consecutive focal points — and every segment is ≥ 4δ = 1 sample wide
	// in √α, so a du ≤ 1 sweep can cross at most one boundary per step.
	a := paperApprox()
	tr := NewTracker(a)
	for u := 0.0; u <= paperMaxSqrt; u += 0.5 {
		tr.Seek(u * u)
		if tr.MaxJump > 1 {
			t.Fatalf("gradual sweep needed a %d-segment jump at distance %v", tr.MaxJump, u)
		}
	}
	if tr.Steps != a.NumSegments()-1 {
		t.Errorf("sweep steps = %d, want exactly %d boundary crossings", tr.Steps, a.NumSegments()-1)
	}
}

func TestTrackerDepthStepJumpBounded(t *testing.T) {
	// Between consecutive nappes the on-axis distance jumps one depth step
	// (λ/2 = 4 samples at Table I). Near the probe, where segments are ~1
	// sample wide in √α, that costs a handful of tracker steps — bounded,
	// never a full re-search.
	a := paperApprox()
	tr := NewTracker(a)
	for u := 0.0; u <= paperMaxSqrt; u += 4 {
		tr.Seek(u * u)
	}
	if tr.MaxJump > 4 {
		t.Errorf("depth-step sweep max jump = %d, want ≤ 4", tr.MaxJump)
	}
}

func TestTrackerJumpCost(t *testing.T) {
	a := paperApprox()
	tr := NewTracker(a)
	tr.Seek(paperDomain) // jump to the top
	if tr.MaxJump != a.NumSegments()-1 {
		t.Errorf("full jump cost %d, want %d", tr.MaxJump, a.NumSegments()-1)
	}
	tr.Reset()
	if tr.Cur != 0 {
		t.Error("Reset must return to segment 0")
	}
	if tr.Steps == 0 {
		t.Error("Reset must retain statistics")
	}
}

func TestSlopeFormatHoldsAllSlopes(t *testing.T) {
	a := paperApprox()
	f := SlopeFormat(24)
	for _, s := range a.Segments {
		if s.C1 > f.MaxValue() || s.C1 <= 0 {
			t.Fatalf("slope %v outside %v", s.C1, f)
		}
	}
}

func TestShiftRound(t *testing.T) {
	tests := []struct {
		x    int64
		n    int
		want int64
	}{
		{12, 2, 3}, {13, 2, 3}, {14, 2, 4}, {-14, 2, -4}, {3, -2, 12}, {5, 0, 5},
	}
	for _, tt := range tests {
		if got := shiftRound(tt.x, tt.n); got != tt.want {
			t.Errorf("shiftRound(%d,%d) = %d, want %d", tt.x, tt.n, got, tt.want)
		}
	}
}

// TestRoundShiftMatchesShiftRound holds the hoisted shift form (sign folded
// into the bias, half supplied) to shiftRound over signs, exact ties, the
// values either side of a tie, and magnitudes up to where shiftRound's own
// |x|+half would overflow.
func TestRoundShiftMatchesShiftRound(t *testing.T) {
	for _, n := range []uint{1, 2, 6, 18, 26, 40, 62} {
		half := int64(1) << (n - 1)
		xs := []int64{0, 1, -1, half, -half, half - 1, -half + 1, half + 1, -half - 1,
			3 * half, -3 * half, 5*half - 1, -5*half + 1, 1<<n - 1, -(1<<n - 1),
			1 << 40, -(1 << 40), 1<<61 + 12345, -(1<<61 + 12345), math.MaxInt64 - half, half - math.MaxInt64}
		for k := int64(-9); k <= 9; k++ {
			xs = append(xs, k*half, k*half+1, k*half-1)
		}
		for _, x := range xs {
			if x > math.MaxInt64-half || x < half-math.MaxInt64 {
				continue // k·half wrapped at n = 62
			}
			if got, want := roundShift(x, half, n), shiftRound(x, int(n)); got != want {
				t.Errorf("roundShift(%d, n=%d) = %d, shiftRound = %d", x, n, got, want)
			}
		}
	}
}

// TestRoundNonNegMatchesMathRound covers ties, the doubles adjacent to
// ties (0.49999999999999994 is where ⌊x+0.5⌋ fails), integers, and values
// past 2^52 where every double is an integer.
func TestRoundNonNegMatchesMathRound(t *testing.T) {
	xs := []float64{0, 0.25, 0.49999999999999994, 0.5, 0.5000000000000001, 0.75, 1, 1.5, 2.5,
		1023.5, 4503599627370495.5, 4503599627370496, 4503599627370497, 1 << 53, 1<<53 + 2, 1 << 62}
	for k := 0.0; k < 40; k++ {
		tie := math.Ldexp(1, int(k)) + 0.5
		xs = append(xs, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	for _, x := range xs {
		if got, want := roundNonNeg(x), int64(math.Round(x)); got != want {
			t.Errorf("roundNonNeg(%v) = %d, math.Round = %d", x, got, want)
		}
	}
}

// FuzzRoundHalfUp holds the lane bodies' rounding to roundNonNeg: for a
// scaled argument x in [0.5, 2^31), the floor of the one-rounding sum
// fl(x + 0.5) is x rounded half up. Inputs outside that range are not the
// identity's. Seeds: the binade edges 2^k − 0.5 and one ulp either side,
// the ties k + 0.5 and 2^k + 0.5, and the ends of the range.
func FuzzRoundHalfUp(f *testing.F) {
	for _, x := range roundHalfUpEdges() {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if !(x >= 0.5 && x < 1<<31) {
			return
		}
		if got, want := int64(math.Floor(x+0.5)), roundNonNeg(x); got != want {
			t.Fatalf("⌊fl(%v + 0.5)⌋ = %d, roundNonNeg = %d", x, got, want)
		}
	})
}

// roundHalfUpEdges are the arguments where ⌊fl(x + 0.5)⌋ could part from
// roundNonNeg: the sum crossing into the next binade (2^k − 0.5 and its
// neighbours), exact ties, and the range's ends.
func roundHalfUpEdges() []float64 {
	up, down := math.Inf(1), math.Inf(-1)
	xs := []float64{0.5, math.Nextafter(0.5, up), math.Nextafter(1<<31, 0)}
	for k := range 32 {
		edge := math.Ldexp(1, k) - 0.5
		xs = append(xs, edge, math.Nextafter(edge, down), math.Nextafter(edge, up),
			float64(k)+0.5, math.Ldexp(1, k)+0.5)
	}
	return xs
}

// TestIntDatapathMatchesEvalSeg holds the hoisted integer form to the
// EvalSeg specification on every segment — inside it, on its bounds, below
// its start (negative offset) and far beyond its end — for the default
// config, fractional argument bits, and an offset format wider and narrower
// than the output; and pins which configs it declines.
func TestIntDatapathMatchesEvalSeg(t *testing.T) {
	a := paperApprox()
	for _, cfg := range []FixedConfig{
		DefaultFixedConfig(),
		{ArgFrac: 2, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6},
		{ArgFrac: 0, SlopeFrac: 20, OffsetFrac: 10, OutFrac: 4},
		{ArgFrac: 1, SlopeFrac: 24, OffsetFrac: 3, OutFrac: 8},
	} {
		f := NewFixed(a, cfg)
		d := f.Integer()
		if d == nil {
			t.Fatalf("%+v: no integer datapath", cfg)
		}
		for seg, s := range a.Segments {
			for _, alpha := range []float64{s.Lo, s.Hi, (s.Lo + s.Hi) / 2, s.Lo + 0.5, s.Lo + 0.375,
				math.Nextafter(s.Lo+0.5, 0), s.Lo / 2, s.Hi * 3, 0} {
				want := f.EvalSeg(seg, alpha)
				if got := math.Ldexp(float64(d.Raw(&d.Ops[seg], alpha)), -cfg.OutFrac); got != want {
					t.Fatalf("%+v seg %d alpha %v: Raw %v != EvalSeg %v", cfg, seg, alpha, got, want)
				}
				for _, tx := range []int64{0, 31, -d.Raw(&d.Ops[seg], alpha) - d.outHalf} {
					raw := tx + d.Raw(&d.Ops[seg], alpha)
					if got, want := d.Index(raw), int64(math.Round(math.Ldexp(float64(raw), -cfg.OutFrac))); got != want {
						t.Fatalf("%+v Index(%d) = %d, math.Round = %d", cfg, raw, got, want)
					}
				}
			}
		}
	}
	for _, cfg := range []FixedConfig{
		{ArgFrac: 0, SlopeFrac: 4, OffsetFrac: 6, OutFrac: 6},
		{ArgFrac: 0, SlopeFrac: 6, OffsetFrac: 6, OutFrac: 6},
		{ArgFrac: 0, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 0},
		{ArgFrac: -1, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6},
	} {
		if NewFixed(a, cfg).Integer() != nil {
			t.Errorf("%+v: integer datapath offered for a config it does not cover", cfg)
		}
	}
}

// TestLaneProofClauses fails each clause of proveLanes in turn — by config
// where a FixedConfig can reach it, by editing a proven datapath's operands
// where only a hand-built table can — and holds the licence of a proven
// datapath to what it promises: inside [0, ArgMax] every offset and
// product a lane body forms stays within the widths it uses; from ArgMin
// up the one-rounding floor is the argument's rounding, and below it the
// identity fails; and with tx in [0, LaneTxLimit) every two-leg sum is
// non-negative and, with the rounding half, inside int32.
func TestLaneProofClauses(t *testing.T) {
	a := paperApprox()
	fresh := func() *IntDatapath { return NewFixed(a, DefaultFixedConfig()).Integer() }
	mid := len(a.Segments) / 2
	for _, c := range []struct {
		clause string
		d      *IntDatapath
	}{
		{"scaled domain end", NewFixed(a, FixedConfig{ArgFrac: 8, SlopeFrac: 24, OffsetFrac: 6, OutFrac: 6}).Integer()},
		{"slope word", NewFixed(a, FixedConfig{ArgFrac: 0, SlopeFrac: 32, OffsetFrac: 6, OutFrac: 6}).Integer()},
		{"receive result bound", NewFixed(a, FixedConfig{ArgFrac: 0, SlopeFrac: 30, OffsetFrac: 18, OutFrac: 18}).Integer()},
		{"receive result bound", NewFixed(a, FixedConfig{ArgFrac: 0, SlopeFrac: 30, OffsetFrac: 20, OutFrac: 20}).Integer()},
		{"segment 0 starts", NewFixed(&Approx{Delta: a.Delta, Max: a.Max, Segments: a.Segments[1:]}, DefaultFixedConfig()).Integer()},
		{"no segments", &IntDatapath{}},
		{"starts at", edit(fresh(), func(ops []SegOp) { ops[mid].Lo++ })}, // a gap below mid
		{"starts at", edit(fresh(), func(ops []SegOp) { ops[mid].Hi-- })}, // a gap above it
		{"does not ascend", edit(fresh(), func(ops []SegOp) { ops[mid].Hi, ops[mid+1].Lo = ops[mid].Lo, ops[mid].Lo })},
		{"LoRaw", edit(fresh(), func(ops []SegOp) { ops[mid].LoRaw++ })},                           // rounding is no longer monotone against it
		{"LoRaw", edit(fresh(), func(ops []SegOp) { ops[0].Lo, ops[0].LoRaw = -3, -3 })},           // a negative start
		{"slope word", edit(fresh(), func(ops []SegOp) { ops[mid].C1 = -ops[mid].C1 })},            // a negative product
		{"receive result bound", edit(fresh(), func(ops []SegOp) { ops[mid].V0 = math.MaxInt64 })}, // the sum itself would wrap
		{"V0 -448 is negative", edit(fresh(), func(ops []SegOp) { ops[1].V0 = -(7 << 6) })},        // a receive result below zero
	} {
		if c.d == nil {
			t.Fatalf("%s: no integer datapath to prove", c.clause)
		}
		if ln, err := c.d.proveLanes(); ln != nil || err == nil || !strings.Contains(err.Error(), c.clause) {
			t.Errorf("licence %v, error %v; want none and the %q clause", ln, err, c.clause)
		}
	}
	for _, cfg := range []FixedConfig{DefaultFixedConfig(), {ArgFrac: 3, SlopeFrac: 22, OffsetFrac: 8, OutFrac: 5}} {
		d := NewFixed(a, cfg).Integer()
		ln := d.Lanes()
		if ln == nil {
			_, err := d.proveLanes()
			t.Fatalf("%+v: %v", cfg, err)
		}
		if ln.ArgMax != a.Max || ln.ArgScale != d.argScale || ln.ProdHalf != d.prodHalf || ln.OutHalf != d.outHalf ||
			ln.ProdShift != uint64(d.prodShift) || ln.OutShift != uint64(d.outShift) ||
			ln.ArgMin*ln.ArgScale != 0.5 {
			t.Errorf("%+v: licence %+v does not carry the datapath's constants", cfg, ln)
		}
		below := math.Nextafter(ln.ArgMin, 0) * d.argScale // 0.49999999999999994
		if int64(math.Floor(below+0.5)) == roundNonNeg(below) {
			t.Errorf("%+v: the half-up floor holds just below ArgMin: the clause excludes nothing", cfg)
		}
		for j, op := range d.Ops {
			for _, alpha := range []float64{max(op.Lo, ln.ArgMin), math.Nextafter(op.Hi, 0), (op.Lo + op.Hi) / 2} {
				x := alpha * d.argScale
				off := roundNonNeg(x) - op.LoRaw
				if off < 0 || off >= 1<<31 || off*op.C1 < 0 {
					t.Fatalf("%+v seg %d alpha %v: offset %d leaves the unsigned 32-bit multiplier", cfg, j, alpha, off)
				}
				if got := int64(math.Floor(x + 0.5)); got != roundNonNeg(x) {
					t.Fatalf("%+v seg %d alpha %v: half-up floor %d, roundNonNeg %d", cfg, j, alpha, got, roundNonNeg(x))
				}
				for _, tx := range []int64{LaneTxLimit - 1, 0} {
					if sum := tx + d.Raw(&d.Ops[j], alpha); sum < 0 || sum+d.outHalf > math.MaxInt32 {
						t.Fatalf("%+v seg %d alpha %v tx %d: two-leg sum %d is negative or leaves int32", cfg, j, alpha, tx, sum)
					}
				}
			}
		}
	}
}

// edit applies f to d's operand table and returns d.
func edit(d *IntDatapath, f func([]SegOp)) *IntDatapath {
	f(d.Ops)
	return d
}
