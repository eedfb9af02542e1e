// Command usbeam regenerates the paper's tables, figures and section
// experiments from the command line.
//
// Usage:
//
//	usbeam <subcommand> [flags]
//
// Subcommands:
//
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
// Global flags: -reduced runs on the laptop-scale spec; -exhaustive uses
// stride-1 sweeps (minutes at paper scale). -cpuprofile/-memprofile write pprof
// profiles of the selected experiment, so kernel iterations need no ad-hoc
// instrumentation. Serving performance is measured by the served-volume
// benchmark in bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"ultrabeam/internal/core"
	"ultrabeam/internal/experiments"
	"ultrabeam/internal/report"
	"ultrabeam/internal/tablesteer"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
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
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
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
		fmt.Fprintln(os.Stderr, "usbeam:", err)
		os.Exit(1)
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
		r := experiments.SteerAccuracy(spec, tablesteer.SweepOptions{
			StrideTheta: 16, StridePhi: 16, StrideDepth: 16, StrideElem: 12, Parallel: true})
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
	if err != nil {
		fmt.Fprintln(os.Stderr, "usbeam:", err)
		os.Exit(1)
	}
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

func openOut(path string) (*os.File, func(), error) {
	if path == "" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func writeSeries(path string, s report.Series) error {
	f, done, err := openOut(path)
	if err != nil {
		return err
	}
	defer done()
	return report.WriteCSV(f, s)
}

func writeDots(path string, dots [][3]int) error {
	f, done, err := openOut(path)
	if err != nil {
		return err
	}
	defer done()
	if _, err := fmt.Fprintln(f, "qx,qy,depth"); err != nil {
		return err
	}
	for _, d := range dots {
		if _, err := fmt.Fprintf(f, "%d,%d,%d\n", d[0], d[1], d[2]); err != nil {
			return err
		}
	}
	return nil
}

func writeGrid(path string, grid []float64, width int) error {
	f, done, err := openOut(path)
	if err != nil {
		return err
	}
	defer done()
	for i := 0; i < len(grid); i += width {
		end := i + width
		if end > len(grid) {
			end = len(grid)
		}
		for j, v := range grid[i:end] {
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
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: usbeam <subcommand> [flags]
subcommands: specs orders figure2 figure3a figure3c figure3d accuracy
             fixedpoint storage throughput bound block quality all
flags: -reduced -exhaustive -arch tablefree|tablesteer -out FILE
       -theta DEG -phi DEG -depth N -n SAMPLES
       -cpuprofile FILE -memprofile FILE`)
}
