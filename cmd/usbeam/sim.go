package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/dsp"
	"ultrabeam/internal/experiments"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/serve"
	"ultrabeam/internal/xdcr"
)

// runSim is the sim subcommand: phantom → per-element RF echoes →
// delay-and-sum through one delay architecture → PSF metrics and an
// optional B-mode PGM slice.
//
// -arch takes the server's architecture names and builds the provider
// through serve.Arch.NewProvider, so sim, the server and the benchmark run
// one definition of each architecture. -precision selects the session
// kernel: float64 (the bit-identical golden model) or i16 (a quantized
// int16 echo plane, int32 fixed-point accumulate). Every run beamforms a
// static cine of -frames frames through one persistent Session and reports
// sustained frames/s; -cache-budget bounds its delay cache (0 uncached,
// negative full residency). -transmits N compounds the N axial
// diverging-wave transmits a transmits=N serving request uses
// (core.SystemSpec.AxialTransmits).
func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	archName := fs.String("arch", "exact", "delay architecture: exact|tablefree|tablesteer")
	phantom := fs.String("phantom", "point", "phantom: point|grid|speckle")
	depth := fs.Float64("depth", 0.02, "target depth in meters")
	out := fs.String("out", "", "write a B-mode PGM slice to this path")
	precision := fs.String("precision", "float64", "session kernel: float64|i16")
	frames := fs.Int("frames", 1, "cine frames to beamform through one session")
	cacheBudget := fs.Int64("cache-budget", -1, "delay-cache bytes (0 = uncached, <0 = full residency)")
	transmits := fs.Int("transmits", 1, "axial insonifications compounded per frame")
	fs.Parse(args)

	arch, err := serve.ParseArch(*archName)
	if err != nil {
		return usageErr{err}
	}
	prec, err := beamform.ParsePrecision(*precision)
	if err != nil {
		return usageErr{err}
	}
	ph, err := buildPhantom(*phantom, *depth)
	if err != nil {
		return err
	}

	spec := core.ReducedSpec()
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 41, 1, 200
	spec.PhiDeg = 0
	spec.DepthLambda = 100 // 38.5 mm imaging depth
	p := arch.NewProvider(spec)
	cfg := core.SessionConfig{Window: xdcr.Hann, Precision: prec, Cached: *cacheBudget != 0, CacheBudget: *cacheBudget}

	vol, err := runCine(spec, cfg, p, ph, *transmits, max(*frames, 1))
	if err != nil {
		return err
	}
	m, err := beamform.MeasurePSF(vol, spec.Converter(), spec.Fc)
	if err != nil {
		return err
	}
	fmt.Printf("provider %s: peak at θ-index %d, depth %.2f mm; axial FWHM %.2f mm, lateral FWHM %.2f°\n",
		p.Name(), m.PeakIndex.Theta, spec.Volume().Depth.At(m.PeakIndex.Depth)*1e3,
		m.AxialFWHMmm, m.LateralFWHMdeg)
	if *out == "" {
		return nil
	}
	if err := writeOut(*out, func(w io.Writer) error { return writePGM(w, vol) }); err != nil {
		return err
	}
	fmt.Println("B-mode slice written to", *out)
	return nil
}

func buildPhantom(kind string, depth float64) (rf.Phantom, error) {
	switch kind {
	case "point":
		return rf.PointPhantom(geom.Vec3{Z: depth}), nil
	case "grid":
		return rf.GridPhantom([]geom.Vec3{
			{Z: depth * 0.6}, {Z: depth}, {Z: depth * 1.4},
			{X: depth * 0.2, Z: depth}, {X: -depth * 0.2, Z: depth},
		}), nil
	case "speckle":
		return rf.SpecklePhantom(400,
			geom.Vec3{X: -0.008, Y: -0.0002, Z: depth * 0.5},
			geom.Vec3{X: 0.008, Y: 0.0002, Z: depth * 1.5}, 42), nil
	}
	return rf.Phantom{}, usageErr{fmt.Errorf("unknown phantom %q (want point|grid|speckle)", kind)}
}

// runCine beamforms a static cine through one persistent session: n
// transmits per frame — one is the plain frame from the provider's own
// origin, more are the axial diverging-wave set a transmits=N request
// compounds, echoes synthesized once per transmit — frames times. It prints
// the sustained rate and the cache's stats, and returns the last frame.
func runCine(spec core.SystemSpec, cfg core.SessionConfig, p delay.Provider, ph rf.Phantom, n, frames int) (*beamform.Volume, error) {
	txs, what := []delay.Transmit{{}}, "frames"
	if n > 1 {
		cfg.Transmits = spec.AxialTransmits(n)
		txs, what = cfg.Transmits, fmt.Sprintf("compound frames (%d transmits each)", n)
	}
	txBufs, err := experiments.CompoundEchoes(spec, txs, ph)
	if err != nil {
		return nil, err
	}
	sess, cache, err := spec.NewSessionConfig(cfg, p)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	out := sess.NewVolume()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := sess.Run(out, beamform.Frame{Bufs: txBufs}); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d %s in %v: %.2f frames/s (%d workers, provider %s)\n",
		frames, what, elapsed.Round(time.Millisecond),
		float64(frames)/elapsed.Seconds(), sess.Workers(), p.Name())
	if cache != nil {
		fmt.Println("delay cache:", cache.Stats())
	}
	return out, nil
}

// writePGM renders the θ×depth B-mode slice (φ index 0) log-compressed to
// 8-bit grayscale.
func writePGM(w io.Writer, vol *beamform.Volume) error {
	nTheta, nDepth := vol.Vol.Theta.N, vol.Vol.Depth.N
	env := make([]float64, 0, nTheta*nDepth)
	for id := 0; id < nDepth; id++ {
		for it := 0; it < nTheta; it++ {
			v := vol.At(scan.Index{Theta: it, Phi: 0, Depth: id})
			if v < 0 {
				v = -v
			}
			env = append(env, v)
		}
	}
	const dynRange = 50.0
	db := dsp.LogCompress(env, dynRange)
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", nTheta, nDepth); err != nil {
		return err
	}
	pix := make([]byte, len(db))
	for i, v := range db {
		pix[i] = byte((v + dynRange) / dynRange * 255)
	}
	_, err := w.Write(pix)
	return err
}
