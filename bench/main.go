// Command bench is the repository's one served-volume benchmark: it starts
// the real scheduler and server in-process on loopback, drives them as a
// cine client would, checks every reply against the scalar golden, and
// prints every metric by name and unit. README.md has the workloads, the
// metrics and what each is expected to move.
//
// It is a module of its own (go.mod replaces ultrabeam with the parent
// directory), so it is run from this directory or with -C:
//
//	go run -C bench . [-seed N] [-seconds 30] [-workload name] [-json out.json]
//	go run -C bench . -smoke        all four workloads in seconds, for tests
//	go run -C bench . -selfcheck    two full sets, compared within the bounds
//
// With -trace 0 or 1 (the form BENCHMARK.json's driver uses, one workload
// per process) only the untraced or only the traced run is made, and the
// last line of standard output is one JSON object carrying its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all four)")
	trace := fs.Int("trace", -1, "0: untraced run only, 1: traced run only, and print the result as a final JSON line; -1: both")
	jsonOut := fs.String("json", "", "also write every result to this file")
	smoke := fs.Bool("smoke", false, "seconds-long windows and cut-down counts: exercises the harness, measures nothing")
	selfcheck := fs.Bool("selfcheck", false, "run everything twice and fail if the two sets disagree beyond the bounds")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "input seed: the same seed gives the same frames")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of a measured window")
	fs.StringVar(&cfg.outDir, "out", cfg.outDir, "directory for trace-<workload>.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		cfg = cfg.smoke()
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *trace >= 0 && len(selected) != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace 0|1 reports one workload: name it with -workload")
		return 2
	}
	if err := calibInit(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("bench: seed %d, %.0f s windows, GOMAXPROCS %d, %s %s/%s\n",
		cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	sets := 1
	if *selfcheck {
		sets = 2
	}
	var all [][]*result
	ok := true
	for s := 0; s < sets; s++ {
		results, err := runSet(selected, cfg, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, res := range results {
			if !res.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d requests failed; first: %s\n", res.Workload, res.Failed, res.Attempted, res.FirstFail)
				ok = false
			}
		}
		all = append(all, results)
	}
	if *selfcheck && !compareSets(all[0], all[1]) {
		ok = false
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, cfg, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *trace >= 0 {
		printContractLine(all[0][0], *trace)
	}
	if !ok {
		return 1
	}
	return 0
}

// runSet runs the selected workloads one after another, each alone on a
// fresh server. trace picks the untraced run (0), the traced run (1) or
// both (-1); results come back in that order per workload.
func runSet(selected []workload, cfg config, trace int) ([]*result, error) {
	var results []*result
	for _, w := range selected {
		fmt.Printf("\n%s  [%s]\n", w.name, w.query)
		start := time.Now()
		in, err := makeInputs(w, cfg.seed, cfg.frames)
		if err != nil {
			return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
		}
		fmt.Printf("  inputs          %d frames × %d transmits, %.2f MB per request, scalar goldens: %.2f s\n",
			cfg.frames, in.transmits(), float64(len(in.bodies[0]))/1e6, time.Since(start).Seconds())
		if trace != 1 {
			res, err := runEndToEnd(in, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printMetrics(res, endToEnd)
			results = append(results, res)
		}
		if trace != 0 {
			res, err := runTraced(in, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: traced: %w", w.name, err)
			}
			printMetrics(res, perLayer)
			results = append(results, res)
		}
		runtime.GC() // the next workload starts from an empty heap
	}
	return results, nil
}

func printMetrics(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	fmt.Printf("  %-34s %14.4f ratio (%d of %d requests, warm-up included)\n", "failed_ratio", res.Metrics["failed_ratio"], res.Failed, res.Attempted)
	if res.Noisy {
		fmt.Printf("  %s is marked noisy: machine.calib_drift left 0.93–1.07\n", res.Workload)
	}
}

// printContractLine writes the one-object summary BENCHMARK.json's driver
// reads: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func printContractLine(res *result, trace int) {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a NaN metric: a harness bug, not an input
	}
	fmt.Printf("%s\n", b)
}

// compareSets is -selfcheck: two sets of runs of one commit must agree
// within the benchmark's own bounds on every end-to-end metric of every
// workload, and exactly on the metrics that are counts.
func compareSets(a, b []*result) bool {
	fmt.Printf("\nselfcheck: second set against the first\n")
	ok := true
	for i := range a {
		for _, d := range slices.Concat(endToEnd, perLayer) {
			va, reported := a[i].Metrics[d.name]
			vb := b[i].Metrics[d.name]
			switch {
			case !reported:
			case exactCounts[d.name]:
				if va != vb {
					fmt.Printf("  FAIL %s@%s: %g then %g, must be equal\n", d.name, a[i].Workload, va, vb)
					ok = false
				}
			case d.bound > 0:
				diff := math.Abs(vb-va) / math.Abs(va)
				verdict := "ok  "
				if diff > d.bound {
					verdict, ok = "FAIL", false
				}
				fmt.Printf("  %s %s@%s: %.4f then %.4f, %.1f%% apart (bound %.0f%%)\n", verdict, d.name, a[i].Workload, va, vb, 100*diff, 100*d.bound)
			}
		}
	}
	return ok
}

func writeJSON(path string, cfg config, sets [][]*result) error {
	rec := struct {
		Seed       int64       `json:"seed"`
		Seconds    float64     `json:"seconds"`
		GoVersion  string      `json:"go"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		Sets       [][]*result `json:"sets"`
	}{cfg.seed, cfg.seconds, runtime.Version(), runtime.GOMAXPROCS(0), sets}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
