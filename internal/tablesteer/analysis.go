package tablesteer

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/xdcr"
)

// SteerErrorSeconds returns the signed steering approximation error for one
// (focal point, element) pair: the Eq. 7 first-order value minus the exact
// Eq. 6 delay difference, in seconds. Positive r required.
func SteerErrorSeconds(r, theta, phi, xD, yD, c float64) float64 {
	s := geom.SphericalToCartesian(r, theta, phi)
	d := geom.Vec3{X: xD, Y: yD}
	ref := geom.Vec3{Z: r}
	exact := (s.Dist(d) - ref.Dist(d)) / c
	taylor := -(xD*math.Cos(phi)*math.Sin(theta) + yD*math.Sin(phi)) / c
	return taylor - exact
}

// ErrorStats summarizes a steering-error sweep. The paper quotes its
// volume *average* over all (point, element) pairs but its practical *max*
// after directivity/apodization filtering, so both populations are kept:
// "All" fields cover every pair, "Accepted" fields only pairs inside the
// element acceptance cone.
type ErrorStats struct {
	N                 int     // all pairs
	NAccepted         int     // pairs inside element directivity
	MeanAbsSec        float64 // mean |error| over all pairs (paper: 44.641 ns)
	MeanAbsSecAcc     float64 // mean |error| over accepted pairs
	MaxAbsSecAll      float64 // max |error| over all pairs (≈ the 6.7 µs bound)
	MaxAbsSecAcc      float64 // max |error| over accepted pairs (paper: 3.1 µs)
	sumAbs, sumAbsAcc float64
}

// MaxAcceptedSamples converts the directivity-filtered max to samples.
func (e ErrorStats) MaxAcceptedSamples(fs float64) float64 { return e.MaxAbsSecAcc * fs }

// MaxAllSamples converts the unfiltered max to samples.
func (e ErrorStats) MaxAllSamples(fs float64) float64 { return e.MaxAbsSecAll * fs }

func (e *ErrorStats) add(absErr float64, accepted bool) {
	e.N++
	e.sumAbs += absErr
	if absErr > e.MaxAbsSecAll {
		e.MaxAbsSecAll = absErr
	}
	if !accepted {
		return
	}
	e.NAccepted++
	e.sumAbsAcc += absErr
	if absErr > e.MaxAbsSecAcc {
		e.MaxAbsSecAcc = absErr
	}
}

func (e *ErrorStats) merge(o ErrorStats) {
	e.N += o.N
	e.NAccepted += o.NAccepted
	e.sumAbs += o.sumAbs
	e.sumAbsAcc += o.sumAbsAcc
	if o.MaxAbsSecAcc > e.MaxAbsSecAcc {
		e.MaxAbsSecAcc = o.MaxAbsSecAcc
	}
	if o.MaxAbsSecAll > e.MaxAbsSecAll {
		e.MaxAbsSecAll = o.MaxAbsSecAll
	}
}

func (e *ErrorStats) finish() {
	if e.N > 0 {
		e.MeanAbsSec = e.sumAbs / float64(e.N)
	}
	if e.NAccepted > 0 {
		e.MeanAbsSecAcc = e.sumAbsAcc / float64(e.NAccepted)
	}
}

// SweepOptions controls the exhaustiveness of ErrorSweep. Strides of 1
// reproduce the paper's exhaustive exploration; larger strides sample the
// same ranges (endpoints always included by the grid construction).
type SweepOptions struct {
	StrideTheta, StridePhi, StrideDepth, StrideElem int
	Parallel                                        bool
}

func (o SweepOptions) norm() SweepOptions {
	if o.StrideTheta < 1 {
		o.StrideTheta = 1
	}
	if o.StridePhi < 1 {
		o.StridePhi = 1
	}
	if o.StrideDepth < 1 {
		o.StrideDepth = 1
	}
	if o.StrideElem < 1 {
		o.StrideElem = 1
	}
	return o
}

// ErrorSweep measures the §VI-A steering-error statistics over the volume ×
// aperture: mean and max |error| over element-accepted pairs, plus the
// unfiltered max ("the worst inaccuracies are in practice filtered away by
// apodization, since they occur at angles beyond the elements'
// directivity"). The paper reports max 3.1 µs (99 samples) filtered and a
// 44.641 ns (≈1.4285 samples) volume average.
func ErrorSweep(cfg Config, opt SweepOptions) ErrorStats {
	opt = opt.norm()
	dir := cfg.Directivity
	if dir.MaxAngle == 0 {
		dir = xdcr.OmniDirectivity()
	}
	depths := stridedIndices(cfg.Vol.Depth.N, opt.StrideDepth)
	workers := 1
	if opt.Parallel {
		workers = runtime.GOMAXPROCS(0)
		if workers > len(depths) {
			workers = len(depths)
		}
		if workers < 1 {
			workers = 1
		}
	}
	results := make([]ErrorStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &results[w]
			for di := w; di < len(depths); di += workers {
				sweepDepth(cfg, dir, opt, depths[di], st)
			}
		}(w)
	}
	wg.Wait()
	var total ErrorStats
	for _, r := range results {
		total.merge(r)
	}
	total.finish()
	return total
}

// stridedIndices returns 0, stride, 2·stride, … below n.
func stridedIndices(n, stride int) []int {
	if stride < 1 {
		stride = 1
	}
	out := make([]int, 0, n/stride+1)
	for i := 0; i < n; i += stride {
		out = append(out, i)
	}
	return out
}

// addMax updates only the maxima — used by the corner pass, which would
// bias the mean if its samples entered the averages.
func (e *ErrorStats) addMax(absErr float64, accepted bool) {
	if absErr > e.MaxAbsSecAll {
		e.MaxAbsSecAll = absErr
	}
	if accepted && absErr > e.MaxAbsSecAcc {
		e.MaxAbsSecAcc = absErr
	}
}

func sweepDepth(cfg Config, dir xdcr.Directivity, opt SweepOptions, id int, st *ErrorStats) {
	r := cfg.Vol.Depth.At(id)
	// Uniform strided grid: feeds means and maxima.
	for it := 0; it < cfg.Vol.Theta.N; it += opt.StrideTheta {
		theta := cfg.Vol.Theta.At(it)
		for ip := 0; ip < cfg.Vol.Phi.N; ip += opt.StridePhi {
			phi := cfg.Vol.Phi.At(ip)
			s := geom.SphericalToCartesian(r, theta, phi)
			for ej := 0; ej < cfg.Arr.NY; ej += opt.StrideElem {
				yD := cfg.Arr.ElementY(ej)
				for ei := 0; ei < cfg.Arr.NX; ei += opt.StrideElem {
					xD := cfg.Arr.ElementX(ei)
					e := math.Abs(SteerErrorSeconds(r, theta, phi, xD, yD, cfg.Conv.C))
					ok := dir.Accepts(geom.Vec3{X: xD, Y: yD}, s)
					st.add(e, ok)
				}
			}
		}
	}
	// Corner pass: the extreme angles and full aperture feed only the
	// maxima, which live at the grid borders the strided loops may miss.
	for _, it := range []int{0, cfg.Vol.Theta.N - 1} {
		theta := cfg.Vol.Theta.At(it)
		for _, ip := range []int{0, cfg.Vol.Phi.N - 1} {
			phi := cfg.Vol.Phi.At(ip)
			s := geom.SphericalToCartesian(r, theta, phi)
			for ej := 0; ej < cfg.Arr.NY; ej += 3 {
				yD := cfg.Arr.ElementY(ej)
				for ei := 0; ei < cfg.Arr.NX; ei += 3 {
					xD := cfg.Arr.ElementX(ei)
					e := math.Abs(SteerErrorSeconds(r, theta, phi, xD, yD, cfg.Conv.C))
					st.addMax(e, dir.Accepts(geom.Vec3{X: xD, Y: yD}, s))
				}
			}
		}
	}
}

// TaylorBoundSeconds evaluates the Lagrange remainder bound of the §V-A
// first-order expansion for one configuration: both square roots of Eq. 6
// are expanded as √(1+u) = 1 + u/2 + R(u) with |R(u)| ≤ u²/(8(1+ξ)^{3/2}),
// ξ between 0 and u; the bound on the total steering error is the sum of
// the two remainder bounds scaled by r/c. It returns +Inf where the
// expansion leaves its validity region (1+u ≤ 0).
func TaylorBoundSeconds(r, theta, phi, xD, yD, c float64) float64 {
	a := (xD*xD + yD*yD) / (r * r)
	b := 2 * (xD*math.Cos(phi)*math.Sin(theta) + yD*math.Sin(phi)) / r
	uS := a - b // argument of the S square root
	uR := a     // argument of the R square root
	rem := func(u float64) float64 {
		if 1+u <= 0 {
			return math.Inf(1)
		}
		m := 1.0
		if u < 0 {
			m = math.Pow(1+u, -1.5)
		}
		return u * u / 8 * m
	}
	return r / c * (rem(uS) + rem(uR))
}

// WorstTaylorBound maximizes TaylorBoundSeconds over the volume corners and
// aperture corners restricted to the far-field validity region a ≤ maxA
// (the assumption xD, yD ≪ r under which §V-A derives the bound; the paper
// quotes ≈6.7 µs / 214 samples). Returns the bound in seconds.
func WorstTaylorBound(cfg Config, maxA float64) float64 {
	worst := 0.0
	xs := []float64{cfg.Arr.ElementX(0), cfg.Arr.ElementX(cfg.Arr.NX - 1)}
	ys := []float64{cfg.Arr.ElementY(0), cfg.Arr.ElementY(cfg.Arr.NY - 1)}
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		r := cfg.Vol.Depth.At(id)
		for _, it := range []int{0, cfg.Vol.Theta.N - 1} {
			for _, ip := range []int{0, cfg.Vol.Phi.N - 1} {
				for _, xD := range xs {
					for _, yD := range ys {
						if (xD*xD+yD*yD)/(r*r) > maxA {
							continue
						}
						b := TaylorBoundSeconds(r, cfg.Vol.Theta.At(it), cfg.Vol.Phi.At(ip), xD, yD, cfg.Conv.C)
						if !math.IsInf(b, 1) && b > worst {
							worst = b
						}
					}
				}
			}
		}
	}
	return worst
}

// MonteCarloResult reports the §VI-A fixed-point experiment: the fraction
// of delay values whose final integer selection index differs between the
// fixed-point sum (ref + two corrections, each individually quantized) and
// the float sum ("Matlab simulation on 10×10⁶ random input values shows
// that 33% of the echo samples experience this additional inaccuracy if
// using 13 bit integers; this fraction is reduced to less than 2% when
// using a 18-bit (13.5) fixed point representation").
type MonteCarloResult struct {
	N           int
	OffCount    int
	MaxIndexOff int
}

// OffFraction returns the mismatch probability.
func (m MonteCarloResult) OffFraction() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.OffCount) / float64(m.N)
}

// Monte Carlo draw ranges: two-way reference delays span ~0..8000 samples,
// plane corrections ±214 samples (§V-A).
const mcRefMax, mcCorrMax = 8000.0, 214.0

// eachTriple draws n seeded (reference, x-correction, y-correction) triples
// over the paper's dynamic ranges — ref, then x, then y, per sample: the
// one draw sequence every Monte Carlo experiment here shares — and hands
// each to visit.
func eachTriple(n int, seed int64, visit func(ref, xc, yc float64)) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		ref := rng.Float64() * mcRefMax
		xc := (rng.Float64()*2 - 1) * mcCorrMax
		yc := (rng.Float64()*2 - 1) * mcCorrMax
		visit(ref, xc, yc)
	}
}

// quantize is v rounded to the nearest word of f, as a raw integer.
func quantize(v float64, f fixed.Format) int64 {
	q, _ := fixed.Quantize(v, f, fixed.RoundNearest)
	return q.Raw
}

// count records one sample whose fixed-point index is got and float index
// exact.
func (m *MonteCarloResult) count(got, exact int) {
	if got == exact {
		return
	}
	m.OffCount++
	off := got - exact
	if off < 0 {
		off = -off
	}
	m.MaxIndexOff = max(m.MaxIndexOff, off)
}

// FixedPointMonteCarlo draws n random (reference, x-correction,
// y-correction) triples spanning the paper's dynamic ranges, quantizes each
// component into refFmt/corrFmt, and compares the rounded index of the
// fixed-point sum against the rounded float sum.
func FixedPointMonteCarlo(n int, refFmt, corrFmt fixed.Format, seed int64) MonteCarloResult {
	res := MonteCarloResult{N: n}
	frac := max(refFmt.FracBits, corrFmt.FracBits)
	eachTriple(n, seed, func(ref, xc, yc float64) {
		sumRaw := quantize(ref, refFmt)<<uint(frac-refFmt.FracBits) +
			(quantize(xc, corrFmt)+quantize(yc, corrFmt))<<uint(frac-corrFmt.FracBits)
		res.count(delay.Index(math.Ldexp(float64(sumRaw), -frac)), delay.Index(ref+xc+yc))
	})
	return res
}

// FixedPointMonteCarloCombined repeats the experiment with the x and y
// corrections combined *before* quantization (a design variant with a fused
// correction table): only two rounding errors enter the sum, which is how
// the mismatch fraction drops below the paper's 2 % at the 18-bit point.
func FixedPointMonteCarloCombined(n int, refFmt, corrFmt fixed.Format, seed int64) MonteCarloResult {
	res := MonteCarloResult{N: n}
	frac := max(refFmt.FracBits, corrFmt.FracBits)
	eachTriple(n, seed, func(ref, xc, yc float64) {
		sumRaw := quantize(ref, refFmt)<<uint(frac-refFmt.FracBits) + quantize(xc+yc, corrFmt)<<uint(frac-corrFmt.FracBits)
		res.count(delay.Index(math.Ldexp(float64(sumRaw), -frac)), delay.Index(ref+xc+yc))
	})
	return res
}

// ExpectedAbsQuantError estimates E|fixed-point sum − float sum| in samples
// for a (refFmt, corrFmt) design point by Monte Carlo — the quantization
// term Table II adds to the measured algorithmic mean. At 200 000 draws
// (seed 11) it measures 0.022 samples for the 18-bit pair and 0.126 for the
// 14-bit one; on the measured 1.61-sample mean that models 1.64 and 1.74,
// against the published 1.44 and 1.55.
func ExpectedAbsQuantError(n int, refFmt, corrFmt fixed.Format, seed int64) float64 {
	sum := 0.0
	frac := max(refFmt.FracBits, corrFmt.FracBits)
	eachTriple(n, seed, func(ref, xc, yc float64) {
		raw := quantize(ref, refFmt)<<uint(frac-refFmt.FracBits) +
			(quantize(xc, corrFmt)+quantize(yc, corrFmt))<<uint(frac-corrFmt.FracBits)
		sum += math.Abs(math.Ldexp(float64(raw), -frac) - (ref + xc + yc))
	})
	return sum / float64(n)
}

// Compare runs the provider-vs-exact sweep used by the experiments: it
// wraps delay.Compare with an Exact provider built from the same config.
func (p *Provider) Compare(strideE int) delay.Stats {
	e := delay.NewExact(p.Cfg.Vol, p.Cfg.Arr, geom.Vec3{Z: p.Cfg.OriginZ}, p.Cfg.Conv)
	return delay.Compare(p, e, strideE)
}

// DepthErrorProfile returns mean |steering error| per depth (samples) along
// a fixed extreme steering direction — the ablation map showing that worst
// far-field errors concentrate "at extremely short distances from the
// origin and at the extreme angles of the field of view".
func DepthErrorProfile(cfg Config, it, ip int, strideE int) []float64 {
	if strideE < 1 {
		strideE = 1
	}
	theta := cfg.Vol.Theta.At(it)
	phi := cfg.Vol.Phi.At(ip)
	out := make([]float64, cfg.Vol.Depth.N)
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		r := cfg.Vol.Depth.At(id)
		sum, n := 0.0, 0
		for ej := 0; ej < cfg.Arr.NY; ej += strideE {
			for ei := 0; ei < cfg.Arr.NX; ei += strideE {
				e := SteerErrorSeconds(r, theta, phi, cfg.Arr.ElementX(ei), cfg.Arr.ElementY(ej), cfg.Conv.C)
				sum += math.Abs(e)
				n++
			}
		}
		out[id] = cfg.Conv.SecondsToSamples(sum / float64(n))
	}
	return out
}
