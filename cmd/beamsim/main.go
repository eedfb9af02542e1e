// Command beamsim runs the full imaging pipeline at reduced scale: phantom
// → per-element RF echoes → delay-and-sum beamforming through a selected
// delay architecture → PSF metrics and an optional B-mode PGM image.
//
// Usage:
//
//	beamsim [-provider exact|tablefree|tablesteer] [-phantom point|grid|speckle]
//	        [-depth 0.02] [-out image.pgm]
//	        [-precision float64|i16] [-frames N] [-cache-budget BYTES]
//	        [-transmits N]
//
// An unknown -provider, -phantom or -precision name exits with status 2.
// The §II-A image-quality comparison across providers is `usbeam quality`.
//
// -precision selects the session kernel: float64 (int16 delay blocks,
// float64 echo — bit-identical golden model, the default) or i16 (int16
// delay blocks against a quantized int16 echo plane, int32 fixed-point
// accumulate).
//
// -frames > 1 beamforms a static cine through a persistent Session and
// reports sustained frames/s. -cache-budget bounds the nappe-block delay
// cache that amortizes generation across frames: 0 disables caching,
// negative means unlimited (full residency, the default).
//
// -transmits N compounds N diverging-wave insonifications per frame from
// the axial virtual-source set a transmits=N serving request uses
// (core.SystemSpec.AxialTransmits), which every provider represents:
// echoes are synthesized once per transmit and the session coherently sums
// the N beamformations — the delay cache is then keyed by (transmit,
// nappe) and its budget is shared across the set.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/dsp"
	"ultrabeam/internal/experiments"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

func main() {
	provider := flag.String("provider", "exact", "delay architecture: exact|tablefree|tablesteer")
	phantom := flag.String("phantom", "point", "phantom: point|grid|speckle")
	depth := flag.Float64("depth", 0.02, "target depth in meters")
	out := flag.String("out", "", "write a B-mode PGM slice to this path")
	precision := flag.String("precision", "float64", "session kernel: float64|i16")
	frames := flag.Int("frames", 1, "cine frames to beamform through one session")
	cacheBudget := flag.Int64("cache-budget", -1, "delay-cache bytes (0 = uncached, <0 = full residency)")
	transmits := flag.Int("transmits", 1, "axial insonifications compounded per frame")
	flag.Parse()

	spec := core.ReducedSpec()
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 41, 1, 200
	spec.PhiDeg = 0
	spec.DepthLambda = 100 // 38.5 mm imaging depth

	ph := buildPhantom(*phantom, *depth)
	p := selectProvider(spec, *provider)
	eng := spec.NewBeamformer(xdcr.Hann, scan.NappeOrder)
	eng.Cfg.Precision = parsePrecision(*precision)

	// The default-origin echo set serves every mode except the compound
	// cine, which synthesizes one set per transmit instead.
	synthesize := func() []rf.EchoBuffer {
		bufs, err := rf.Synthesize(rf.Config{
			Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
			BufSamples: spec.EchoBufferSamples(),
		}, ph)
		check(err)
		return bufs
	}

	var vol *beamform.Volume
	switch {
	case *transmits > 1:
		vol = runCompound(spec, p, ph, *transmits, *frames, *cacheBudget, eng.Cfg.Precision)
	case *frames > 1:
		vol = runCine(spec, p, synthesize(), *frames, *cacheBudget, eng.Cfg.Precision)
	default:
		var err error
		vol, err = eng.Beamform(p, synthesize())
		check(err)
	}
	m, err := beamform.MeasurePSF(vol, spec.Converter(), spec.Fc)
	check(err)
	fmt.Printf("provider %s: peak at θ-index %d, depth %.2f mm; axial FWHM %.2f mm, lateral FWHM %.2f°\n",
		p.Name(), m.PeakIndex.Theta, spec.Volume().Depth.At(m.PeakIndex.Depth)*1e3,
		m.AxialFWHMmm, m.LateralFWHMdeg)
	if *out != "" {
		check(writePGM(*out, vol))
		fmt.Println("B-mode slice written to", *out)
	}
}

func buildPhantom(kind string, depth float64) rf.Phantom {
	switch kind {
	case "point":
		return rf.PointPhantom(geom.Vec3{Z: depth})
	case "grid":
		return rf.GridPhantom([]geom.Vec3{
			{Z: depth * 0.6}, {Z: depth}, {Z: depth * 1.4},
			{X: depth * 0.2, Z: depth}, {X: -depth * 0.2, Z: depth},
		})
	case "speckle":
		return rf.SpecklePhantom(400,
			geom.Vec3{X: -0.008, Y: -0.0002, Z: depth * 0.5},
			geom.Vec3{X: 0.008, Y: 0.0002, Z: depth * 1.5}, 42)
	}
	usageError("unknown phantom %q (want point|grid|speckle)", kind)
	return rf.Phantom{}
}

// runCine beamforms a static cine through one persistent session (cached
// unless budget is 0) and
// reports sustained frames/s plus cache effectiveness. It returns the last
// beamformed frame for the usual PSF report and -out image.
func runCine(spec core.SystemSpec, p delay.Provider, bufs []rf.EchoBuffer, frames int, budget int64, prec beamform.Precision) *beamform.Volume {
	sess, cache, err := spec.NewSessionConfig(core.SessionConfig{
		Window: xdcr.Hann, Precision: prec,
		Cached: budget != 0, CacheBudget: budget,
	}, p)
	check(err)
	defer sess.Close()
	out := &beamform.Volume{Vol: spec.Volume(), Data: make([]float64, spec.Points())}
	start := time.Now()
	for i := 0; i < frames; i++ {
		check(sess.BeamformInto(out, bufs))
	}
	elapsed := time.Since(start)
	fmt.Printf("%d frames in %v: %.2f frames/s (%d workers, provider %s)\n",
		frames, elapsed.Round(time.Millisecond),
		float64(frames)/elapsed.Seconds(), sess.Workers(), p.Name())
	if cache != nil {
		fmt.Println("delay cache:", cache.Stats())
	}
	return out
}

// runCompound beamforms a compound cine: n diverging-wave transmits per
// frame from on-axis virtual sources 10λ to 30λ behind the array
// (spec.AxialTransmits), echoes synthesized once per transmit, one
// persistent session summing the insonifications coherently.
// It reports sustained compound frames/s and cache effectiveness, and
// returns the last compounded frame.
func runCompound(spec core.SystemSpec, p delay.Provider, ph rf.Phantom, n, frames int, budget int64, prec beamform.Precision) *beamform.Volume {
	txs := spec.AxialTransmits(n)
	txBufs, err := experiments.CompoundEchoes(spec, txs, ph)
	check(err)
	sess, cache, err := spec.NewSessionConfig(core.SessionConfig{
		Window: xdcr.Hann, Precision: prec,
		Cached: budget != 0, CacheBudget: budget,
		Transmits: txs,
	}, p)
	check(err)
	defer sess.Close()
	out := &beamform.Volume{Vol: spec.Volume(), Data: make([]float64, spec.Points())}
	start := time.Now()
	for i := 0; i < frames; i++ {
		check(sess.BeamformCompoundInto(out, txBufs))
	}
	elapsed := time.Since(start)
	fmt.Printf("%d compound frames (%d transmits each) in %v: %.2f frames/s (%d workers, provider %s)\n",
		frames, n, elapsed.Round(time.Millisecond),
		float64(frames)/elapsed.Seconds(), sess.Workers(), p.Name())
	if cache != nil {
		fmt.Println("delay cache:", cache.Stats())
	}
	return out
}

func parsePrecision(name string) beamform.Precision {
	p, err := beamform.ParsePrecision(name)
	if err != nil {
		usageError("%v", err)
	}
	return p
}

func selectProvider(spec core.SystemSpec, name string) delay.Provider {
	switch name {
	case "exact":
		return spec.NewExact()
	case "tablefree":
		p := spec.NewTableFree()
		p.UseFixed = true
		return p
	case "tablesteer":
		p := spec.NewTableSteer(18)
		p.UseFixed = true
		return p
	}
	usageError("unknown provider %q (want exact|tablefree|tablesteer)", name)
	return nil
}

// usageError reports a bad flag value and exits with status 2, the flag
// package's status for a usage error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "beamsim: "+format+"\n", args...)
	os.Exit(2)
}

// writePGM renders the θ×depth B-mode slice (φ index 0) log-compressed to
// 8-bit grayscale.
func writePGM(path string, vol *beamform.Volume) error {
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
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", nTheta, nDepth); err != nil {
		return err
	}
	pix := make([]byte, len(db))
	for i, v := range db {
		pix[i] = byte((v + dynRange) / dynRange * 255)
	}
	_, err = f.Write(pix)
	return err
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "beamsim:", err)
		os.Exit(1)
	}
}
