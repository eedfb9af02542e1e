// Package core ties the substrates together behind the system specification
// of Table I: one SystemSpec value describes the probe, the imaging volume
// and the sampling chain, and the constructors derive the exact, TABLEFREE
// and TABLESTEER delay providers plus the beamforming engine from it. The
// root ultrabeam package re-exports this API.
package core

import (
	"fmt"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/tablesteer"
	"ultrabeam/internal/xdcr"
)

// SystemSpec is the Table I configuration of the target 3-D ultrasound
// system. The zero value is not useful; start from PaperSpec and adjust.
type SystemSpec struct {
	// Physical.
	C float64 // speed of sound in tissue, m/s

	// Transducer head.
	Fc     float64 // transducer center frequency, Hz
	B      float64 // transducer bandwidth, Hz
	ElemX  int     // matrix columns
	ElemY  int     // matrix rows
	PitchL float64 // pitch in wavelengths (0.5 = λ/2)

	// Beamformer.
	ThetaDeg    float64 // azimuth field of view, degrees (full angle)
	PhiDeg      float64 // elevation field of view, degrees (full angle)
	DepthLambda float64 // imaging depth in wavelengths (500λ)
	Fs          float64 // sampling frequency, Hz
	FocalTheta  int     // focal points along θ
	FocalPhi    int     // focal points along φ
	FocalDepth  int     // focal points along depth
}

// PaperSpec returns the exact Table I system: c = 1540 m/s, fc = B = 4 MHz,
// 100×100 elements at λ/2 pitch, 73°×73°×500λ volume, fs = 32 MHz,
// 128×128×1000 focal points.
func PaperSpec() SystemSpec {
	return SystemSpec{
		C:  1540,
		Fc: 4e6, B: 4e6, ElemX: 100, ElemY: 100, PitchL: 0.5,
		ThetaDeg: 73, PhiDeg: 73, DepthLambda: 500, Fs: 32e6,
		FocalTheta: 128, FocalPhi: 128, FocalDepth: 1000,
	}
}

// ReducedSpec returns a laptop-scale variant preserving the paper's angular
// span, aperture pitch and sampling chain with fewer elements and focal
// points — the default for tests and examples.
func ReducedSpec() SystemSpec {
	s := PaperSpec()
	s.ElemX, s.ElemY = 16, 16
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 33, 33, 100
	return s
}

// Validate reports configuration errors.
func (s SystemSpec) Validate() error {
	switch {
	case s.C <= 0 || s.Fc <= 0 || s.Fs <= 0:
		return fmt.Errorf("core: non-positive physical constants (c=%v fc=%v fs=%v)", s.C, s.Fc, s.Fs)
	case s.ElemX <= 0 || s.ElemY <= 0:
		return fmt.Errorf("core: invalid element grid %d×%d", s.ElemX, s.ElemY)
	case s.FocalTheta <= 0 || s.FocalPhi <= 0 || s.FocalDepth <= 0:
		return fmt.Errorf("core: invalid focal grid %d×%d×%d", s.FocalTheta, s.FocalPhi, s.FocalDepth)
	case s.ThetaDeg < 0 || s.PhiDeg < 0 || s.DepthLambda <= 0:
		return fmt.Errorf("core: invalid volume extents")
	case s.PitchL <= 0:
		return fmt.Errorf("core: invalid pitch %vλ", s.PitchL)
	}
	return nil
}

// Lambda returns the wavelength c/fc (0.385 mm at Table I values).
func (s SystemSpec) Lambda() float64 { return s.C / s.Fc }

// Pitch returns the element pitch in meters (λ/2 = 0.1925 mm).
func (s SystemSpec) Pitch() float64 { return s.PitchL * s.Lambda() }

// Aperture returns the transducer matrix extent d in meters (≈19.25 mm:
// Table I quotes d = 50λ for the 100-element side).
func (s SystemSpec) Aperture() float64 { return float64(s.ElemX) * s.Pitch() }

// Depth returns the imaging depth in meters (500λ = 192.5 mm).
func (s SystemSpec) Depth() float64 { return s.DepthLambda * s.Lambda() }

// SamplesPerLambda returns fs/fc (8 at Table I values).
func (s SystemSpec) SamplesPerLambda() float64 { return s.Fs / s.Fc }

// Converter returns the delay sample converter.
func (s SystemSpec) Converter() delay.Converter { return delay.Converter{C: s.C, Fs: s.Fs} }

// Array returns the transducer model.
func (s SystemSpec) Array() xdcr.Array { return xdcr.NewArray(s.ElemX, s.ElemY, s.Pitch()) }

// Volume returns the focal-point grid.
func (s SystemSpec) Volume() scan.Volume {
	return scan.NewVolume(geom.Radians(s.ThetaDeg), geom.Radians(s.PhiDeg), s.Depth(),
		s.FocalTheta, s.FocalPhi, s.FocalDepth)
}

// Points returns |V| (128×128×1000 ≈ 16.4 M at paper scale).
func (s SystemSpec) Points() int { return s.FocalTheta * s.FocalPhi * s.FocalDepth }

// Elements returns the receive channel count (10 000 at paper scale).
func (s SystemSpec) Elements() int { return s.ElemX * s.ElemY }

// DelaysPerFrame returns points × elements (≈1.64×10¹¹ at paper scale;
// §II-B quotes "about 164×10⁹" delay values).
func (s SystemSpec) DelaysPerFrame() float64 {
	return float64(s.Points()) * float64(s.Elements())
}

// EchoBufferSamples returns the two-way echo window depth in samples
// ("slightly more than 8000" at Table I scale).
func (s SystemSpec) EchoBufferSamples() int {
	return int(2*s.DepthLambda*s.SamplesPerLambda()) + 512
}

// AxialTransmits returns the n-transmit set a transmits=N request or a
// compound cine runs: on-axis virtual sources spread from 10λ to 30λ
// behind the aperture (delay.AxialTransmits), the set every delay
// generator, TABLESTEER's folding included, can represent.
func (s SystemSpec) AxialTransmits(n int) []delay.Transmit {
	l := s.Lambda()
	return delay.AxialTransmits(n, -10*l, -30*l)
}

// NewExact returns the float64 golden-model provider.
func (s SystemSpec) NewExact() *delay.Exact {
	return delay.NewExact(s.Volume(), s.Array(), geom.Vec3{}, s.Converter())
}

// NewTableFree returns a TABLEFREE provider (§IV) with paper defaults.
func (s SystemSpec) NewTableFree() *tablefree.Provider {
	return tablefree.New(tablefree.Config{
		Vol: s.Volume(), Arr: s.Array(), Conv: s.Converter(),
	})
}

// NewTableSteer returns a TABLESTEER provider (§V). bits selects the 14- or
// 18-bit design point; any other value defaults to 18.
func (s SystemSpec) NewTableSteer(bits int) *tablesteer.Provider {
	cfg := tablesteer.Config{
		Vol: s.Volume(), Arr: s.Array(), Conv: s.Converter(),
		Directivity: tablesteer.DefaultDirectivity(),
	}
	if bits == 14 {
		cfg.RefFmt, cfg.CorrFmt = tablesteer.Bits14Config()
	} else {
		cfg.RefFmt, cfg.CorrFmt = tablesteer.Bits18Config()
	}
	return tablesteer.New(cfg)
}

// NewBeamformer returns a delay-and-sum engine for this system. order
// names the Algorithm 1 sweep; every order yields the same volume (depth
// slices are independent), so the engine does not keep it.
func (s SystemSpec) NewBeamformer(w xdcr.Window, order scan.Order) *beamform.Engine {
	return beamform.New(beamform.Config{
		Vol: s.Volume(), Arr: s.Array(), Conv: s.Converter(), Window: w,
	})
}

// SessionConfig selects the datapath of a session built by
// NewSessionConfig: kernel precision, an optional nappe-block delay cache
// (int16 block storage — the representation both kernels consume), and an
// optional multi-transmit compounding set.
type SessionConfig struct {
	Window      xdcr.Window
	Precision   beamform.Precision
	Cached      bool
	CacheBudget int64 // as delaycache.Config.BudgetBytes; ignored unless Cached
	// Transmits lists the per-frame insonifications to compound: one delay
	// provider is derived per entry (delay.ForTransmits) and, when Cached,
	// one shared-budget cache keyed by (transmit, nappe) feeds them all.
	// Empty means a single insonification using p's own emission origin.
	Transmits []delay.Transmit
}

// NewSharedCache builds a sharable delay block store for this spec and
// session configuration, which any number of sessions can attach to
// concurrently: each takes a store.Attach() view and runs
// Engine.NewSession(store.Generators(), view). The generators are the ones
// NewSessionConfig lifts, so attached sessions are bit-identical to
// sessions owning a private cache of the same budget.
func (s SystemSpec) NewSharedCache(cfg SessionConfig, p delay.Provider) (*delaycache.Shared, error) {
	gens, err := s.generators(cfg, p)
	if err != nil {
		return nil, err
	}
	return delaycache.NewShared(delaycache.Config{
		Providers: gens, Depths: s.FocalDepth, BudgetBytes: cfg.CacheBudget,
	})
}

// generators derives the per-transmit block generators of a session
// configuration — p's own emission origin when cfg.Transmits is empty,
// else one variant of p per transmit (delay.ForTransmits) — lifted onto
// this spec's nappe layout.
func (s SystemSpec) generators(cfg SessionConfig, p delay.Provider) ([]delay.BlockProvider, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil delay provider")
	}
	provs := []delay.Provider{p}
	if len(cfg.Transmits) > 0 {
		var err error
		if provs, err = delay.ForTransmits(p, cfg.Transmits); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	layout := delay.Layout{NTheta: s.FocalTheta, NPhi: s.FocalPhi, NX: s.ElemX, NY: s.ElemY}
	gens := make([]delay.BlockProvider, len(provs))
	for t, q := range provs {
		gens[t] = delay.AsBlock(q, layout)
	}
	return gens, nil
}

// NewSessionConfig builds a session with an explicit datapath
// configuration — the one way to build a session from a spec. The returned cache
// is the session's attachment to a fresh private store under cfg.Cached,
// and nil when the session is uncached; a cached session runs the store's
// own generators for the blocks the store does not hold. Close the session
// when the cine sequence ends.
func (s SystemSpec) NewSessionConfig(cfg SessionConfig, p delay.Provider) (*beamform.Session, *delaycache.Cache, error) {
	eng := s.NewBeamformer(cfg.Window, scan.NappeOrder)
	eng.Cfg.Precision = cfg.Precision
	var gens []delay.BlockProvider
	var cache *delaycache.Cache
	var err error
	if cfg.Cached {
		var store *delaycache.Shared
		if store, err = s.NewSharedCache(cfg, p); err == nil {
			gens, cache = store.Generators(), store.Attach()
		}
	} else {
		gens, err = s.generators(cfg, p)
	}
	if err != nil {
		return nil, nil, err
	}
	sess, err := eng.NewSession(gens, cache)
	if err != nil {
		if cache != nil {
			cache.Detach()
		}
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return sess, cache, nil
}

// String summarizes the specification (the Table I row set).
func (s SystemSpec) String() string {
	return fmt.Sprintf("%d×%d elements @ %.3f mm pitch, %g°×%g°×%.1f mm volume, %d×%d×%d focal points, fs=%.0f MHz",
		s.ElemX, s.ElemY, s.Pitch()*1e3, s.ThetaDeg, s.PhiDeg, s.Depth()*1e3,
		s.FocalTheta, s.FocalPhi, s.FocalDepth, s.Fs/1e6)
}
