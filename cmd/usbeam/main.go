// Command usbeam regenerates the paper's tables, figures and section
// experiments from the command line, and runs the imaging pipeline.
//
// Usage:
//
//	usbeam <subcommand> [flags]
//
// Subcommands:
//
//	sim         imaging pipeline: phantom → RF → beamform → PSF metrics / PGM
//	table2      Table II FPGA resource model (-device virtex7|ultrascale, -paper)
//	specs       Table I system specification
//	orders      Algorithm 1 / Fig. 1 sweep-order locality
//	figure2     Fig. 2(b) PWL square-root error profile (CSV to -out)
//	figure3a    Fig. 3(a) reference-table dot cloud (CSV to -out)
//	figure3c    Fig. 3(c) steering-correction plane (CSV to -out)
//	figure3d    Fig. 3(d) compensated table section (CSV to -out)
//	accuracy    §VI-A accuracy statistics (-arch tablefree|tablesteer)
//	fixedpoint  §VI-A fixed-point Monte Carlo
//	storage     §II / §V-B storage and bandwidth accounting
//	throughput  §IV-B / §V-B performance laws
//	bound       §V-A Lagrange bound on the steering error
//	block       B1 block-vs-scalar delay-generation rates (always reduced scale)
//	quality     §II-A image-quality experiment
//	all         every text experiment in sequence
//
// sim and table2 take their own flags:
//
//	usbeam sim [-arch exact|tablefree|tablesteer] [-phantom point|grid|speckle]
//	           [-depth 0.02] [-out image.pgm] [-precision float64|i16]
//	           [-frames N] [-cache-budget BYTES] [-transmits N]
//	usbeam table2 [-device virtex7|ultrascale] [-paper]
//
// An unknown -arch, -phantom, -precision or -device value exits with
// status 2. The §II-A image-quality comparison across architectures is
// usbeam quality.
//
// The other subcommands share these flags: -reduced runs on the
// laptop-scale spec; -exhaustive uses stride-1 sweeps (minutes at paper
// scale). -cpuprofile/-memprofile write pprof profiles of the selected
// experiment, so kernel iterations need no ad-hoc instrumentation. Serving
// performance is measured by the served-volume benchmark in bench/
// (bash bench/run.sh), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"ultrabeam/internal/core"
	"ultrabeam/internal/experiments"
	"ultrabeam/internal/report"
	"ultrabeam/internal/tablesteer"
)

// coarseSweep is the strided TABLESTEER sweep behind the Lagrange bound and
// Table II's inaccuracy column.
var coarseSweep = tablesteer.SweepOptions{StrideTheta: 16, StridePhi: 16, StrideDepth: 16, StrideElem: 12, Parallel: true}

// usageErr marks a bad flag value; main exits with status 2 on it, the flag
// package's status for a usage error.
type usageErr struct{ error }

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "sim":
		err = runSim(args)
	case "table2":
		err = runTable2(args)
	default:
		err = runExperiment(cmd, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "usbeam:", err)
		if errors.As(err, new(usageErr)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// runExperiment runs one of the experiment subcommands that share the
// -reduced/-exhaustive/profile flags.
func runExperiment(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	reduced := fs.Bool("reduced", false, "use the laptop-scale spec")
	exhaustive := fs.Bool("exhaustive", false, "stride-1 sweeps (slow)")
	arch := fs.String("arch", "tablesteer", "accuracy target: tablefree|tablesteer")
	out := fs.String("out", "", "CSV output path for figure data (default stdout)")
	theta := fs.Float64("theta", 20, "steering azimuth in degrees (figure3c/3d)")
	phi := fs.Float64("phi", 10, "steering elevation in degrees (figure3c/3d)")
	depth := fs.Int("depth", 500, "depth index (figure3d)")
	n := fs.Int("n", 2_000_000, "Monte Carlo samples (fixedpoint)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile after the experiment to this path")
	fs.Parse(args)
	spec := core.PaperSpec()
	if *reduced {
		spec = core.ReducedSpec()
	}
	opt := tablesteer.SweepOptions{StrideTheta: 8, StridePhi: 8, StrideDepth: 8,
		StrideElem: 9, Parallel: true}
	if *exhaustive {
		opt = tablesteer.SweepOptions{StrideTheta: 1, StridePhi: 1, StrideDepth: 1,
			StrideElem: 1, Parallel: true}
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}

	switch cmd {
	case "specs":
		err = experiments.SpecsTable(spec).Render(os.Stdout)
	case "orders":
		err = experiments.SweepOrders(spec).Table().Render(os.Stdout)
	case "figure2":
		r := experiments.Figure2(spec, 4096)
		fmt.Printf("PWL sqrt: %d segments (paper ~70), δ=%.2f, max err %.4f samples\n",
			r.Segments, r.Delta, r.MaxErr)
		err = writeSeries(*out, r.Profile)
	case "figure3a":
		r := experiments.Figure3a(spec, 5, 25)
		fmt.Printf("reference table: %d entries (%.1f Mb), %d pruned by directivity (%.1f%%)\n",
			r.Entries, float64(r.StorageBits)/1e6, r.Pruned,
			100*float64(r.Pruned)/float64(r.Entries))
		err = writeDots(*out, r.Dots)
	case "figure3c":
		plane, it, ip := experiments.Figure3c(spec, *theta, *phi)
		fmt.Printf("correction plane at grid (θ=%d, φ=%d)\n", it, ip)
		err = writeGrid(*out, plane, spec.ElemX)
	case "figure3d":
		slice := experiments.Figure3d(spec, *theta, *phi, clampDepth(*depth, spec))
		qx := (spec.ElemX + 1) / 2
		err = writeGrid(*out, slice, qx)
	case "accuracy":
		switch *arch {
		case "tablefree":
			err = experiments.TableFreeAccuracy(spec, 8, 12).Table().Render(os.Stdout)
		default:
			err = experiments.SteerAccuracy(spec, opt).Table().Render(os.Stdout)
		}
	case "fixedpoint":
		err = experiments.FixedPoint(*n, 1).Table().Render(os.Stdout)
	case "storage":
		err = experiments.Storage(spec).Table().Render(os.Stdout)
	case "throughput":
		err = experiments.Throughput(spec).Table().Render(os.Stdout)
	case "bound":
		r := experiments.SteerAccuracy(spec, coarseSweep)
		fmt.Printf("Lagrange bound: %.2f µs = %.0f samples (paper: 6.7 µs / 214)\n",
			r.BoundSec*1e6, r.BoundSec*spec.Fs)
	case "block":
		// Scalar sweeps at paper scale take minutes; B1 always runs reduced.
		err = experiments.BlockPath(core.ReducedSpec()).Table().Render(os.Stdout)
	case "quality":
		q := core.ReducedSpec()
		q.FocalTheta, q.FocalPhi, q.FocalDepth = 21, 1, 120
		q.PhiDeg = 0
		q.DepthLambda = 80
		var r experiments.ImageQualityResult
		if r, err = experiments.ImageQuality(q, 0.02); err == nil {
			err = r.Table().Render(os.Stdout)
		}
	case "all":
		err = runAll(spec, opt)
	default:
		usage()
		os.Exit(2)
	}
	stopProfiles()
	return err
}

// startProfiles starts a CPU profile and/or arms a heap-profile write; the
// returned stop function flushes both (call it before exiting).
func startProfiles(cpuPath, memPath string) (func(), error) {
	stop := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintln(os.Stderr, "usbeam: cpu profile written to", cpuPath)
		}
	}
	if memPath == "" {
		return stop, nil
	}
	cpuStop := stop
	return func() {
		cpuStop()
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "usbeam:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final live-heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "usbeam:", err)
			return
		}
		fmt.Fprintln(os.Stderr, "usbeam: heap profile written to", memPath)
	}, nil
}

func runAll(spec core.SystemSpec, opt tablesteer.SweepOptions) error {
	tables := []*report.Table{
		experiments.SpecsTable(spec),
		experiments.SweepOrders(spec).Table(),
		experiments.TableFreeAccuracy(spec, 8, 12).Table(),
		experiments.SteerAccuracy(spec, opt).Table(),
		experiments.FixedPoint(2_000_000, 1).Table(),
		experiments.Storage(spec).Table(),
		experiments.Throughput(spec).Table(),
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func clampDepth(d int, spec core.SystemSpec) int {
	if d >= spec.FocalDepth {
		return spec.FocalDepth - 1
	}
	if d < 0 {
		return 0
	}
	return d
}

// writeOut runs write against the file at path, or against stdout when
// path is empty.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSeries(path string, s report.Series) error {
	return writeOut(path, func(f io.Writer) error { return report.WriteCSV(f, s) })
}

func writeDots(path string, dots [][3]int) error {
	return writeOut(path, func(f io.Writer) error {
		if _, err := fmt.Fprintln(f, "qx,qy,depth"); err != nil {
			return err
		}
		for _, d := range dots {
			if _, err := fmt.Fprintf(f, "%d,%d,%d\n", d[0], d[1], d[2]); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeGrid(path string, grid []float64, width int) error {
	return writeOut(path, func(f io.Writer) error {
		for i := 0; i < len(grid); i += width {
			row := grid[i:min(i+width, len(grid))]
			for j, v := range row {
				if j > 0 {
					if _, err := fmt.Fprint(f, ","); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprint(f, strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(f); err != nil {
				return err
			}
		}
		return nil
	})
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: usbeam <subcommand> [flags]
subcommands: sim table2 specs orders figure2 figure3a figure3c figure3d
             accuracy fixedpoint storage throughput bound block quality all
sim flags: -arch exact|tablefree|tablesteer -phantom point|grid|speckle
           -depth METERS -out FILE.pgm -precision float64|i16 -frames N
           -cache-budget BYTES -transmits N
table2 flags: -device virtex7|ultrascale -paper
other flags: -reduced -exhaustive -arch tablefree|tablesteer -out FILE
             -theta DEG -phi DEG -depth N -n SAMPLES
             -cpuprofile FILE -memprofile FILE`)
}
