package sqrtapprox

import (
	"math"
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
	minE, maxE := math.Inf(1), math.Inf(-1)
	for _, e := range errs {
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
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

func TestFixedApproxCloseToFloat(t *testing.T) {
	a := paperApprox()
	f := NewFixed(a, DefaultFixedConfig())
	worst := 0.0
	for alpha := 0.0; alpha <= paperDomain; alpha += paperDomain / 3000 {
		d := math.Abs(f.Eval(alpha) - a.Eval(alpha))
		if d > worst {
			worst = d
		}
	}
	// Fixed-point effects add only fractions of an output LSB (2^-6).
	if worst > 0.05 {
		t.Errorf("fixed-point deviates from float PWL by %v samples", worst)
	}
}

func TestFixedApproxTotalError(t *testing.T) {
	// Against true sqrt, the fixed datapath stays within δ plus fixed-point
	// slack — the paper's TABLEFREE per-sqrt error story.
	a := paperApprox()
	f := NewFixed(a, DefaultFixedConfig())
	worst := 0.0
	for alpha := 0.0; alpha <= paperDomain; alpha += paperDomain / 5000 {
		d := math.Abs(f.Eval(alpha) - math.Sqrt(alpha))
		if d > worst {
			worst = d
		}
	}
	if worst > paperDelta+0.05 {
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

func BenchmarkEvalFloat(b *testing.B) {
	a := paperApprox()
	for i := 0; i < b.N; i++ {
		a.Eval(float64(i%int(paperDomain)) + 0.5)
	}
}

func BenchmarkEvalFixed(b *testing.B) {
	f := NewFixed(paperApprox(), DefaultFixedConfig())
	for i := 0; i < b.N; i++ {
		f.Eval(float64(i % int(paperDomain)))
	}
}

func BenchmarkTrackerSeek(b *testing.B) {
	a := paperApprox()
	tr := NewTracker(a)
	for i := 0; i < b.N; i++ {
		tr.Seek(float64(i%int(paperDomain)) * 1.0)
	}
}

// TestEvalSliceMatchesEval holds the batched cursor evaluators to the
// per-argument binary-search path, bit for bit, on sweeps that move both
// smoothly (nappe-like) and with large jumps (scanline restarts), in both
// directions and beyond the domain edges.
func TestEvalSliceMatchesEval(t *testing.T) {
	a := paperApprox()
	f := NewFixed(a, DefaultFixedConfig())
	n := 4096
	sweeps := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		sweeps[0][i] = x * paperDomain                                            // ascending
		sweeps[1][i] = (1 - x) * paperDomain                                      // descending
		sweeps[2][i] = float64((i*2654435761)%n) / float64(n) * 1.2 * paperDomain // jumpy, past Max
	}
	sweeps[2][0] = -1 // below the domain
	dst := make([]float64, n)
	for si, alphas := range sweeps {
		a.EvalSlice(dst, alphas)
		for i, alpha := range alphas {
			if want := a.Eval(alpha); dst[i] != want {
				t.Fatalf("sweep %d float: EvalSlice(%v) = %v, Eval = %v", si, alpha, dst[i], want)
			}
		}
		f.EvalSlice(dst, alphas)
		for i, alpha := range alphas {
			if want := f.Eval(alpha); dst[i] != want {
				t.Fatalf("sweep %d fixed: EvalSlice(%v) = %v, Eval = %v", si, alpha, dst[i], want)
			}
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
// datapath to what it promises: inside [0, ArgMax] every offset, product
// and two-leg sum a lane body forms stays within the widths it uses.
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
		{"receive result bound", edit(fresh(), func(ops []SegOp) { ops[mid].V0 = math.MinInt64 })}, // |V0| itself would wrap
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
			ln.ProdShift != uint64(d.prodShift) || ln.OutShift != uint64(d.outShift) {
			t.Errorf("%+v: licence %+v does not carry the datapath's constants", cfg, ln)
		}
		for j, op := range d.Ops {
			for _, alpha := range []float64{max(op.Lo, 0), math.Nextafter(op.Hi, 0), (op.Lo + op.Hi) / 2} {
				off := roundNonNeg(alpha*d.argScale) - op.LoRaw
				if off < 0 || off >= 1<<31 || off*op.C1 < 0 {
					t.Fatalf("%+v seg %d alpha %v: offset %d leaves the unsigned 32-bit multiplier", cfg, j, alpha, off)
				}
				for _, tx := range []int64{LaneTxLimit - 1, 1 - LaneTxLimit} {
					if sum := tx + d.Raw(&d.Ops[j], alpha); sum+d.outHalf > math.MaxInt32 || sum-1 < math.MinInt32 {
						t.Fatalf("%+v seg %d alpha %v tx %d: two-leg sum %d leaves int32", cfg, j, alpha, tx, sum)
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
