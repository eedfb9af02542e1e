// Package beamform implements the digital receive beamformer that the
// paper's delay generators feed: the delay-and-sum of Eq. 1,
//
//	s(S) = Σ_D w(S,D) · e(D, tp(O,S,D))
//
// over a pluggable delay.Provider, with separable receive apodization and
// parallel workers over depth slices (either Algorithm 1 sweep order gives
// the same volume, so the engine walks nappes only). The
// accompanying metrics quantify the paper's §II-A claim that "image quality
// will be the same regardless of how delays are obtained at runtime, so
// long as delays are equally accurate".
//
// The engine has one datapath, the software form of the paper's
// nappe-order streaming hardware: each worker owns one reusable int16 nappe
// delay block, asks the provider to fill it in bulk
// (delay.BlockProvider.FillNappe16 — one call per depth slice instead of
// one virtual call per voxel×element) and then walks the contiguous block
// and the apodization table with a single linear cursor, exactly as the
// Fig. 4 beamformer consumes a constant-depth table slice intensively
// before moving deeper (§V-B). BeamformScalar keeps the per-voxel×element
// DelaySamples dispatch as the executable specification; the block
// datapath's volumes are bit-identical to it, which the path-invariance
// tests assert.
package beamform

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/dsp"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// Precision selects the session's accumulate kernel: which echo samples it
// gathers and how it sums them. Both kernels consume int16 delay blocks,
// which are exact — quantizing a fractional delay to its int16 selection
// index is the rounding the beamformer performs anyway (delay.Index16) — so
// PrecisionFloat64 is bit-identical to the scalar reference, and
// PrecisionInt16 trades int16 echo samples and int32 fixed-point
// accumulation for bandwidth, gated at ≥ 60 dB PSNR against the float64
// golden volume.
type Precision int

const (
	// PrecisionFloat64 (the default) runs int16 delay blocks against
	// float64 echo buffers with float64 accumulation: the golden model,
	// bit-identical to the scalar reference at a quarter of the delay
	// bandwidth.
	PrecisionFloat64 Precision = iota
	// PrecisionInt16 runs the ADC-native fixed-point datapath: int16 delay
	// blocks against a quantized int16 echo plane (2 B/sample plus one
	// scale per frame×transmit), accumulated in int32 fixed point by the
	// purego/native accumulateNappe16I16 kernel — the paper's §V-B word
	// widths (14-bit indices, narrow samples, 18-bit accumulator words)
	// carried onto machine registers. See kernel_i16.go for the saturation
	// analysis that sizes the accumulator headroom.
	PrecisionInt16
)

func (p Precision) String() string {
	switch p {
	case PrecisionFloat64:
		return "float64"
	case PrecisionInt16:
		return "i16"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision parses a precision name ("float64" or "i16") — the shared
// parser behind the precision= parameter and the CLI -precision flags.
func ParsePrecision(name string) (Precision, error) {
	switch name {
	case "float64", "f64":
		return PrecisionFloat64, nil
	case "i16", "int16":
		return PrecisionInt16, nil
	}
	return PrecisionFloat64, fmt.Errorf("beamform: unknown precision %q (want float64|i16)", name)
}

// Config assembles a beamforming engine.
type Config struct {
	Vol     scan.Volume
	Arr     xdcr.Array
	Conv    delay.Converter
	Window  xdcr.Window // receive apodization (w in Eq. 1)
	Workers int         // parallel workers; 0 = GOMAXPROCS
	// Precision selects the session kernel width (zero value =
	// PrecisionFloat64, the bit-identical golden model).
	Precision Precision
}

// Engine is a reusable beamformer for one geometry.
type Engine struct {
	Cfg  Config
	apod []float64
	// Zero-weight elements (window edges) contribute nothing to Eq. 1;
	// activeIdx/activeW pack the surviving element indices and weights so
	// the block accumulation loop carries no per-element branch. The packed
	// order stays ascending in element index, so the sum order — and the
	// floating-point result — is identical to walking apod with a skip.
	activeIdx []int32
	activeW   []float64

	// Fixed-point apodization for the i16 kernel (kernel_i16.go): activeWQ
	// quantizes activeW to signed Q15 against wqScale, preShift is the
	// per-product right shift that keeps the int32 accumulator inside its
	// headroom bound, i16Rescale folds wqScale and the shift back out of a
	// finished voxel, and i16OK reports whether the bound was satisfiable
	// for this aperture (the session demotes to the exact float64 kernel
	// when it was not).
	//
	// tiles is the walk of a nappe's θ×φ plane that both AVX-512 tile
	// bodies take — the i16 one (kernel_i16_amd64.s) and the float64 one
	// (kernel_f64_amd64.s) — sixteen voxel indices per tile
	// (delay.Layout.SnakeTiles): it depends on the grid alone, so it is cut
	// once here.
	activeWQ   []int16
	wqScale    float64
	preShift   uint
	i16Rescale float64
	i16OK      bool
	tiles      []int32
}

// New builds an engine, precomputing the separable apodization.
func New(cfg Config) *Engine {
	e := &Engine{Cfg: cfg, apod: xdcr.Apodization2D(cfg.Window, cfg.Arr.NX, cfg.Arr.NY)}
	for d, w := range e.apod {
		if w != 0 {
			e.activeIdx = append(e.activeIdx, int32(d))
			e.activeW = append(e.activeW, w)
		}
	}
	e.initI16()
	e.tiles = e.layout().SnakeTiles()
	return e
}

// Volume is a beamformed output volume, linearly indexed per scan.Volume.
type Volume struct {
	Vol  scan.Volume
	Data []float64
}

// At returns the beamformed sample at a grid index.
func (v *Volume) At(ix scan.Index) float64 { return v.Data[v.Vol.Linear(ix)] }

// ensureLen returns dst resized to n values, reusing its backing array
// when capacity allows — the shared buffer policy of the *Into accessors.
func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// ScanlineInto extracts the depth profile along line of sight (it, ip)
// into dst, reusing its storage when it has capacity; it returns the
// filled slice. Analysis loops call this once per line with one buffer
// instead of allocating per call.
func (v *Volume) ScanlineInto(dst []float64, it, ip int) []float64 {
	dst = ensureLen(dst, v.Vol.Depth.N)
	for id := 0; id < v.Vol.Depth.N; id++ {
		dst[id] = v.At(scan.Index{Theta: it, Phi: ip, Depth: id})
	}
	return dst
}

// Scanline extracts the depth profile along line of sight (it, ip).
func (v *Volume) Scanline(it, ip int) []float64 {
	return v.ScanlineInto(nil, it, ip)
}

// LateralProfileInto extracts the θ profile at fixed (ip, id) into dst,
// reusing its storage when it has capacity; it returns the filled slice.
func (v *Volume) LateralProfileInto(dst []float64, ip, id int) []float64 {
	dst = ensureLen(dst, v.Vol.Theta.N)
	for it := 0; it < v.Vol.Theta.N; it++ {
		dst[it] = v.At(scan.Index{Theta: it, Phi: ip, Depth: id})
	}
	return dst
}

// LateralProfile extracts the θ profile at fixed (ip, id).
func (v *Volume) LateralProfile(ip, id int) []float64 {
	return v.LateralProfileInto(nil, ip, id)
}

// NappeSliceInto extracts the (θ × φ) slice at depth id, row-major in φ,
// into dst, reusing its storage when it has capacity; it returns the
// filled slice.
func (v *Volume) NappeSliceInto(dst []float64, id int) []float64 {
	dst = ensureLen(dst, v.Vol.Theta.N*v.Vol.Phi.N)
	i := 0
	for it := 0; it < v.Vol.Theta.N; it++ {
		for ip := 0; ip < v.Vol.Phi.N; ip++ {
			dst[i] = v.At(scan.Index{Theta: it, Phi: ip, Depth: id})
			i++
		}
	}
	return dst
}

// NappeSlice extracts the (θ × φ) slice at depth id, row-major in φ.
func (v *Volume) NappeSlice(id int) []float64 {
	return v.NappeSliceInto(nil, id)
}

// Beamform runs Eq. 1 over the whole volume using delays from p and echoes
// from bufs (indexed like xdcr.Array), through the streaming nappe
// pipeline: every worker owns one reusable int16 nappe delay block, fills
// it with a single BlockProvider call per depth slice (plain Providers are
// lifted via delay.ScalarAdapter) and accumulates Eq. 1 by walking the
// contiguous block. Delays are rounded to integer selection indices exactly
// as the hardware's rounding adders do, and the volume is bit-identical to
// BeamformScalar's. It is the one throwaway-session convenience: a session
// built by NewSession runs the frame and shuts down. Cine callers should
// hold a Session instead and amortize the pool (and any delay cache) across
// frames.
func (e *Engine) Beamform(p delay.Provider, bufs []rf.EchoBuffer) (*Volume, error) {
	if p == nil {
		return nil, errors.New("beamform: nil delay provider")
	}
	s, err := e.NewSession([]delay.BlockProvider{delay.AsBlock(p, e.layout())}, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := s.NewVolume()
	if err := s.Run(out, Frame{Bufs: [][]rf.EchoBuffer{bufs}}); err != nil {
		return nil, err
	}
	return out, nil
}

// BeamformScalar runs the per-voxel×element reference datapath: one
// DelaySamples call and one Index rounding per voxel×element, the
// executable specification every block kernel is held to.
func (e *Engine) BeamformScalar(p delay.Provider, bufs []rf.EchoBuffer) (*Volume, error) {
	out, workers, err := e.prepare(p, bufs)
	if err != nil {
		return nil, err
	}
	// Depth slices are independent; parallelize across them. The sweep
	// order of Algorithm 1 affects hardware table walking, not the
	// numerical result, so the engine has no order setting.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < e.Cfg.Vol.Depth.N; id += workers {
				e.beamformNappe(p, bufs, id, out, false)
			}
		}(w)
	}
	wg.Wait()
	return out, nil
}

// prepare validates the inputs and sizes the output volume and worker pool.
func (e *Engine) prepare(p delay.Provider, bufs []rf.EchoBuffer) (*Volume, int, error) {
	if len(bufs) != e.Cfg.Arr.Elements() {
		return nil, 0, fmt.Errorf("beamform: %d echo buffers for %d elements",
			len(bufs), e.Cfg.Arr.Elements())
	}
	if p == nil {
		return nil, 0, errors.New("beamform: nil delay provider")
	}
	out := &Volume{Vol: e.Cfg.Vol, Data: make([]float64, e.Cfg.Vol.Points())}
	return out, e.workerCount(), nil
}

// workerCount resolves Config.Workers: GOMAXPROCS by default, clamped to
// the depth-slice count (the unit of parallel work).
func (e *Engine) workerCount() int {
	workers := e.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > e.Cfg.Vol.Depth.N {
		workers = e.Cfg.Vol.Depth.N
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// beamformNappe sums Eq. 1 for one depth slice straight from the scalar
// law. add selects the store mode: false overwrites the output voxel (the
// single-transmit frame), true adds the slice's Eq. 1 sum onto whatever a
// previous transmit left there — compounding N transmits in increasing
// transmit order therefore produces exactly the sequential per-transmit sum
// ((v₀+v₁)+v₂)…, which the compounding invariance tests assert bitwise.
// Every kernel holds the same contract, and sums each voxel's elements in
// this order: ascending element index, zero weights skipped.
func (e *Engine) beamformNappe(p delay.Provider, bufs []rf.EchoBuffer, id int, out *Volume, add bool) {
	arr := e.Cfg.Arr
	for it := 0; it < e.Cfg.Vol.Theta.N; it++ {
		for ip := 0; ip < e.Cfg.Vol.Phi.N; ip++ {
			acc := 0.0
			for ej := 0; ej < arr.NY; ej++ {
				for ei := 0; ei < arr.NX; ei++ {
					w := e.apod[arr.Index(ei, ej)]
					if w == 0 {
						continue
					}
					idx := delay.Index(p.DelaySamples(it, ip, id, ei, ej))
					acc += w * bufs[arr.Index(ei, ej)].At(idx)
				}
			}
			i := out.Vol.Linear(scan.Index{Theta: it, Phi: ip, Depth: id})
			if add {
				out.Data[i] += acc
			} else {
				out.Data[i] = acc
			}
		}
	}
}

// PSFMetrics quantifies a point-spread function from a beamformed volume.
type PSFMetrics struct {
	PeakIndex      scan.Index // grid location of the envelope maximum
	PeakValue      float64
	AxialFWHMmm    float64 // depth-direction resolution, millimeters
	LateralFWHMdeg float64 // θ-direction resolution, degrees
}

// MeasurePSF locates the brightest point of the volume (by envelope along
// the scanline through each candidate peak) and measures axial and lateral
// FWHM. f0 is the pulse center frequency used for envelope detection.
func MeasurePSF(v *Volume, conv delay.Converter, f0 float64) (PSFMetrics, error) {
	var m PSFMetrics
	// Locate the global |signal| peak first.
	best := -1.0
	for it := 0; it < v.Vol.Theta.N; it++ {
		for ip := 0; ip < v.Vol.Phi.N; ip++ {
			for id := 0; id < v.Vol.Depth.N; id++ {
				val := math.Abs(v.At(scan.Index{Theta: it, Phi: ip, Depth: id}))
				if val > best {
					best = val
					m.PeakIndex = scan.Index{Theta: it, Phi: ip, Depth: id}
				}
			}
		}
	}
	if best <= 0 {
		return m, errors.New("beamform: volume has no energy")
	}
	m.PeakValue = best
	// Axial: envelope of the scanline through the peak. Depth samples are
	// Depth.Step() meters apart.
	line := v.Scanline(m.PeakIndex.Theta, m.PeakIndex.Phi)
	// The scanline is sampled in depth, not time; its carrier period in
	// depth samples is (c/f0/2)/step (two-way). Demodulate accordingly.
	step := v.Vol.Depth.Step()
	if step <= 0 {
		return m, errors.New("beamform: degenerate depth grid")
	}
	spatialF0 := 2 * f0 / conv.C * step // cycles per depth sample
	var env []float64
	if spatialF0 > 0 && spatialF0 < 0.5 {
		iq, err := dsp.Demodulate(line, spatialF0, 1, math.Min(spatialF0, 0.45), 31)
		if err != nil {
			return m, err
		}
		env = iq.Envelope()
	} else {
		env = absSlice(line)
	}
	m.AxialFWHMmm = dsp.FWHM(env) * step * 1e3
	// Lateral: |signal| profile across θ at the peak depth.
	lat := absSlice(v.LateralProfile(m.PeakIndex.Phi, m.PeakIndex.Depth))
	thetaStepDeg := v.Vol.Theta.Step() * 180 / math.Pi
	m.LateralFWHMdeg = dsp.FWHM(lat) * thetaStepDeg
	return m, nil
}

func absSlice(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Abs(v)
	}
	return out
}

// Similarity returns the normalized cross-correlation of two volumes on the
// same grid — 1.0 means identical images. The paper's image-quality claim
// predicts values ≈1 between exact- and approximate-delay beamforming.
func Similarity(a, b *Volume) (float64, error) {
	if len(a.Data) != len(b.Data) {
		return 0, errors.New("beamform: volume size mismatch")
	}
	var sab, saa, sbb float64
	for i := range a.Data {
		sab += a.Data[i] * b.Data[i]
		saa += a.Data[i] * a.Data[i]
		sbb += b.Data[i] * b.Data[i]
	}
	if saa == 0 || sbb == 0 {
		return 0, errors.New("beamform: zero-energy volume")
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// PeakSignalRatio returns 20·log10(peak(a)/rms(a−b)) in dB: how far the
// difference image sits below the signal peak.
func PeakSignalRatio(a, b *Volume) (float64, error) {
	if len(a.Data) != len(b.Data) {
		return 0, errors.New("beamform: volume size mismatch")
	}
	peak := 0.0
	diff := make([]float64, len(a.Data))
	for i := range a.Data {
		if v := math.Abs(a.Data[i]); v > peak {
			peak = v
		}
		diff[i] = a.Data[i] - b.Data[i]
	}
	r := dsp.RMS(diff)
	if peak == 0 {
		return 0, errors.New("beamform: zero-energy volume")
	}
	if r == 0 {
		return math.Inf(1), nil
	}
	return 20 * math.Log10(peak/r), nil
}
