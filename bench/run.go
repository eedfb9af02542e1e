package main

import (
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/serve"
)

// config sizes a run. The defaults are the benchmark; smoke shrinks every
// count so the harness itself can be tested in seconds.
type config struct {
	seed    int64
	seconds float64 // measured window
	rounds  int     // consecutive equal slices of the window, a calibration between each
	floor   int     // fewest samples the end-to-end window ends with; 0 (smoke) also lifts the ten-beyond rule
	frames  int     // distinct frames rotated
	warm    int     // warm-up volumes per set-up
	setups  int     // set-ups per end-to-end run; setup_s is their median
	replay  int     // staged-replay volumes
	calls   int     // timed calls behind each per-layer median
	outDir  string  // trace files
}

func defaultConfig() config {
	return config{seed: 1, seconds: 30, rounds: 8, floor: minSamples, frames: rotation, warm: 24, setups: 4, replay: 32, calls: 32, outDir: "out"}
}

func (c config) smoke() config {
	c.seconds, c.rounds, c.floor, c.frames, c.warm, c.setups, c.replay, c.calls = 1, 1, 0, 1, 8, 1, 8, 4
	return c
}

// psnrFloor is the fidelity every reply must hold against the scalar
// golden; psnrIdentical is what a bit-identical reply prints.
const (
	psnrFloor     = 60.0
	psnrIdentical = 300.0
)

// recorder verifies replies and counts them, across every phase of a run
// (warm-up included).
type recorder struct {
	in *inputs

	mu        sync.Mutex
	attempted int
	failed    int
	minPSNR   float64
	firstFail string
}

func newRecorder(in *inputs) *recorder { return &recorder{in: in, minPSNR: psnrIdentical} }

// check holds one reply to the golden of the frame it answers and reports
// whether it counts as answered correctly.
func (rec *recorder) check(r reply) bool {
	psnr, err := rec.verify(r)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	if err != nil {
		rec.failed++
		if rec.firstFail == "" {
			rec.firstFail = fmt.Sprintf("request %d: %v", r.seq, err)
		}
		return false
	}
	rec.minPSNR = math.Min(rec.minPSNR, psnr)
	return true
}

func (rec *recorder) verify(r reply) (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	gold := rec.in.golden[r.seq%rotation]
	if len(r.data) != len(gold.Data) {
		return 0, fmt.Errorf("reply has %d voxels, the grid has %d", len(r.data), len(gold.Data))
	}
	psnr, err := beamform.PeakSignalRatio(gold, &beamform.Volume{Vol: gold.Vol, Data: r.data})
	if err != nil {
		return 0, err
	}
	if math.IsInf(psnr, 1) {
		return psnrIdentical, nil
	}
	if rec.in.w.bitIdentical {
		return 0, fmt.Errorf("reply is not bit-identical to the scalar golden (%.1f dB)", psnr)
	}
	if !(psnr >= psnrFloor) {
		return 0, fmt.Errorf("reply is %.1f dB from the scalar golden, floor %.0f dB", psnr, psnrFloor)
	}
	return math.Min(psnr, psnrIdentical), nil
}

// rig is one set-up system ready for a window: a fresh node, a connected
// client, the cold first volume and the warm-up behind it.
type rig struct {
	node    *node
	cl      loadClient
	setupS  float64
	coldMs  float64
	warmLat []float64 // ms, in order
}

func (g *rig) close() {
	g.cl.close()
	g.node.stop()
	runtime.GC()
}

var farFuture = time.Unix(1<<40, 0)

// setUp is the set-up phase setup_s times: start the server, connect, serve
// the cold first volume (session build, provider build, first-touch fills)
// and cfg.warm warm-up volumes. Warm-up is by count, not first reply:
// sizing saw a resident stream serve volumes 15–22 at 3–10× steady state.
func setUp(in *inputs, cfg config, rec *recorder) (*rig, error) {
	start := time.Now()
	n, err := startNode()
	if err != nil {
		return nil, err
	}
	cl, err := dial(n, in)
	if err != nil {
		n.stop()
		return nil, err
	}
	g := &rig{node: n, cl: cl}
	var mu sync.Mutex
	done := func(r reply) {
		rec.check(r)
		mu.Lock()
		g.warmLat = append(g.warmLat, ms(r.recv.Sub(r.sent)))
		mu.Unlock()
	}
	if err := cl.run(farFuture, 1, false, done); err != nil {
		g.close()
		return nil, fmt.Errorf("first volume: %w", err)
	}
	if err := cl.run(farFuture, cfg.warm, false, done); err != nil {
		g.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	g.setupS = time.Since(start).Seconds()
	g.coldMs, g.warmLat = g.warmLat[0], g.warmLat[1:]
	return g, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// windowResult is one measured window. Rates and latencies are in
// reference time (machine.go): each round's are scaled by the host factor
// measured right before and right after it.
type windowResult struct {
	seconds float64   // wall length of the rounds, calibrations excluded
	n       int       // volumes answered correctly
	rate    float64   // median over rounds of the round's reference-time rate
	rawRate float64   // n ÷ seconds, wall clock
	rounds  []float64 // reference-time rate of each round
	lat     []float64 // reference-time latencies (ms) of those n
	p50     float64
	rawP50  float64     // wall-clock median latency
	first   calibration // before the first round
	drift   float64     // host factor after the last round ÷ before the first
	before  serve.SchedulerStats
	after   serve.SchedulerStats
}

// minSamples is the fewest latency samples a window ends with: p90 needs a
// hundred (ten beyond it), and the same host that serves tablefree_uncached
// at 11.7 volumes/s one hour serves it at 6.8 the next, where 12 s hold 82.
// A window still short of this after its last round runs further rounds
// until it has them.
const minSamples = 120

// window drives the workload for rounds rounds of seconds÷rounds each (more,
// while it holds fewer than floor samples and rounds still yield some), with
// a calibration between rounds, and reduces what came back. cal is the
// calibration taken right before the call. Every request a round issues is
// waited for and is a sample; a round's length runs to its last reply.
func window(g *rig, rec *recorder, seconds float64, rounds, floor int, cal calibration, tr *tracer) (windowResult, error) {
	res := windowResult{first: cal, before: g.node.sched.Stats()}
	length := time.Duration(seconds / float64(rounds) * float64(time.Second))
	var rawLat, lat []float64
	for round := 0; round < rounds || (res.n < floor && len(lat) > 0); round++ {
		var mu sync.Mutex
		lat = nil
		start := time.Now()
		end := start
		done := func(r reply) {
			ok := rec.check(r)
			if tr != nil {
				tr.live(r)
			}
			mu.Lock()
			if ok {
				lat = append(lat, ms(r.recv.Sub(r.sent)))
			}
			if r.recv.After(end) {
				end = r.recv
			}
			mu.Unlock()
		}
		if err := g.cl.run(start.Add(length), forever, tr != nil, done); err != nil {
			return res, err
		}
		next := calibrate()
		h := hostFactor(cal, next)
		cal = next
		wall := end.Sub(start).Seconds()
		res.seconds += wall
		res.n += len(lat)
		if len(lat) > 0 {
			res.rounds = append(res.rounds, float64(len(lat))/wall*h)
		}
		rawLat = append(rawLat, lat...)
		for _, l := range lat {
			res.lat = append(res.lat, l/h)
		}
	}
	res.after = g.node.sched.Stats()
	res.drift = cal.factor() / res.first.factor()
	if res.n == 0 {
		return res, fmt.Errorf("no volume answered correctly in a %.0f s window", seconds)
	}
	res.rate, res.rawRate = median(res.rounds), float64(res.n)/res.seconds
	res.p50, res.rawP50 = median(res.lat), median(rawLat)
	return res, nil
}

func (win windowResult) print(label string) {
	tag := ""
	if noisy(win.drift) {
		tag = "  ** noisy: the host moved during this window **"
	}
	fmt.Printf("  %-15s %.1f s, n=%d, wall clock %.2f 1/s, p50 %.2f ms; reference time %.2f 1/s, p50 %.2f ms\n", label, win.seconds, win.n, win.rawRate, win.rawP50, win.rate, win.p50)
	fmt.Printf("  %-15s %s 1/s (min %.2f, median %.2f, max %.2f)\n", "  rounds", fmtList(win.rounds, "%.2f"), slices.Min(win.rounds), win.rate, slices.Max(win.rounds))
	fmt.Printf("  %-15s %s before, drift %.3f%s\n", "  calibration", win.first, win.drift, tag)
}

// result is what one run of one workload reports. Metrics holds the run's
// own table (endToEnd or perLayer) plus failed_ratio and, on an untraced
// run, the wall-clock twins of the reference-time metrics (wall.*).
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstFail string             `json:"first_failure,omitempty"`
	Noisy     bool               `json:"noisy"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (res *result) correct() bool { return res.Failed == 0 && res.Attempted > 0 }

func (res *result) count(rec *recorder) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	res.Attempted, res.Failed, res.FirstFail = rec.attempted, rec.failed, rec.firstFail
	res.Metrics["failed_ratio"] = float64(rec.failed) / float64(max(rec.attempted, 1))
}

// liveHeapMB is HeapAlloc after a forced collection, taken with the server
// up and the clients idle. Twice: the first cycle's sweep frees what the
// server's sync.Pools dropped. The scheduler's lane queues keep the jobs
// last popped from each slot of their backing array reachable (decoded
// planes and volume, 18 MB on post_f64_golden) until an append overwrites
// the slot, so with two requests in flight a sample carries one or two dead
// jobs depending on how the last ones raced; live_heap_mb is the largest of
// a sample per set-up and one after the window, which lands on the
// two-job state in all but a percent of runs where the smallest flipped
// between the two in half of them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runEndToEnd is the untraced run: cfg.setups set-ups (the last one is
// kept), one window, the seven end-to-end metrics. A calibration sits
// between every two phases, so each is scaled by the host factor around it.
func runEndToEnd(in *inputs, cfg config) (*result, error) {
	res := &result{Workload: in.w.name, Seed: cfg.seed, Metrics: map[string]float64{}}
	rec := newRecorder(in)
	var g *rig
	var setupS, rawSetupS, heapMB []float64
	cal := calibrate()
	for i := 0; i < cfg.setups; i++ {
		if g != nil {
			g.close()
		}
		var err error
		if g, err = setUp(in, cfg, rec); err != nil {
			return nil, err
		}
		next := calibrate()
		setupS, rawSetupS = append(setupS, g.setupS/hostFactor(cal, next)), append(rawSetupS, g.setupS)
		heapMB = append(heapMB, liveHeapMB())
		cal = next
	}
	defer g.close()
	win, err := window(g, rec, cfg.seconds, cfg.rounds, cfg.floor, cal, nil)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	m["setup_s"] = median(setupS)
	m["volumes_per_s"] = win.rate
	m["latency_p50_ms"] = win.p50
	if cfg.floor > 0 && !supported(win.n, 90) {
		return nil, fmt.Errorf("latency_p90_ms: under-sampled: n=%d leaves fewer than %d samples beyond p90", win.n, minBeyond)
	}
	m["latency_p90_ms"] = percentileOf(win.lat, 90)
	m["live_heap_mb"] = slices.Max(append(heapMB, liveHeapMB()))
	res.count(rec)
	m["ok_ratio"] = 1 - m["failed_ratio"]
	m["psnr_db"] = rec.minPSNR
	m["wall.volumes_per_s"], m["wall.latency_p50_ms"], m["wall.setup_s"] = win.rawRate, win.rawP50, median(rawSetupS)
	res.Noisy = noisy(win.drift)

	fmt.Printf("  set-up          %d × (start, dial, cold volume, %d warm-up volumes): wall clock %s s; reference time %s s\n", cfg.setups, cfg.warm, fmtList(rawSetupS, "%.3f"), fmtList(setupS, "%.3f"))
	slowest := 0
	for i, l := range g.warmLat {
		if l > g.warmLat[slowest] {
			slowest = i
		}
	}
	fmt.Printf("  warm-up         cold volume %.1f ms, then median %.1f ms, slowest %.1f ms (volume %d)\n", g.coldMs, median(g.warmLat), g.warmLat[slowest], slowest+1)
	win.print("window")
	return res, nil
}

// runTraced is the traced run: an untraced reference window and a window
// with client-side spans on (half of cfg.seconds each, never overlapping),
// then — with the server gone — the staged replay and the direct layer
// timings. It reports the per-layer metrics.
func runTraced(in *inputs, cfg config) (*result, error) {
	res := &result{Workload: in.w.name, Seed: cfg.seed, Metrics: map[string]float64{}}
	rec := newRecorder(in)
	g, err := setUp(in, cfg, rec)
	if err != nil {
		return nil, err
	}
	rounds := max(cfg.rounds/2, 1)
	ref, err := window(g, rec, cfg.seconds/2, rounds, 0, calibrate(), nil)
	if err != nil {
		g.close()
		return nil, err
	}
	tr := newTracer()
	live, err := window(g, rec, cfg.seconds/2, rounds, 0, calibrate(), tr)
	g.close()
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	m["trace.overhead_ratio"] = live.rate / ref.rate
	m["machine.calib_ms"] = ref.first.totalMs()
	m["machine.calib_drift"] = ref.drift
	m["serve.cold_first_volume_ms"] = g.coldMs
	slow := 0
	for _, l := range g.warmLat {
		if l > 3*ref.rawP50 {
			slow++
		}
	}
	m["serve.warm_slow_volumes"] = float64(slow)
	schedulerDeltas(m, ref)
	res.Noisy = noisy(ref.drift)
	ref.print("reference")
	live.print("traced")

	if err := layerPass(in, cfg, rec, tr, m); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "trace-"+in.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	roots, children, err := readTrace(path)
	if err != nil {
		return nil, fmt.Errorf("trace check: %w", err)
	}
	replayed := layerTimes(roots, children, "replay")
	staged := 0.0
	for name, metric := range map[string]string{
		"wire.decode": "", "serve.submit": "serve.submit_ms",
		"wire.write_volume": "wire.write_volume_ms", "wire.read_volume": "wire.read_volume_ms",
	} {
		v := median(replayed[name])
		staged += v
		if metric != "" {
			m[metric] = v
		}
	}
	m["serve.sched_overhead_ms"] = m["serve.submit_ms"] - m["beamform.fill_accumulate_ms"]
	m["serve.transport_residual_ms"] = ref.rawP50 - staged // wall clock both: the replay is not scaled
	res.count(rec)

	fmt.Printf("  trace           %s: %d spans, %d trees, every child inside its parent\n", path, len(tr.spans), len(roots))
	for _, kind := range []string{"live", "replay"} {
		lt := layerTimes(roots, children, kind)
		for _, name := range slices.Sorted(maps.Keys(lt)) {
			fmt.Printf("    %-7s %-20s median %9.3f ms  (n=%d)\n", kind, name, median(lt[name]), len(lt[name]))
		}
	}
	fmt.Printf("  attribution     wall-clock window p50 %.2f ms = staged layers %.2f ms + transport residual %.2f ms\n", ref.rawP50, staged, ref.rawP50-staged)
	fill := m["beamform.fill_accumulate_ms"] - m["beamform.accumulate_ms"]
	fmt.Printf("  fill share      fill_accumulate − accumulate = %.2f ms = %.0f%% of window p50\n", fill, 100*fill/ref.rawP50)
	return res, nil
}

// schedulerDeltas reads what the scheduler itself counted over the
// reference window: cache hits and misses (exact counts), queue wait of the
// lane the traffic rode, and frames per dispatched batch.
func schedulerDeltas(m map[string]float64, win windowResult) {
	lookups := func(st serve.SchedulerStats) (hits, misses int64) {
		for _, g := range st.Geometries {
			if g.Cache != nil {
				hits, misses = hits+g.Cache.Hits, misses+g.Cache.Misses
			}
		}
		return hits, misses
	}
	hits, misses := lookups(win.after)
	hits0, misses0 := lookups(win.before)
	hits, misses = hits-hits0, misses-misses0
	m["delaycache.hit_ratio"] = 0 // an uncached geometry has no store to hit
	if hits+misses > 0 {
		m["delaycache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	var lane serve.LaneStats
	for _, l := range win.after.Lanes {
		if l.Dispatched > lane.Dispatched {
			lane = l
		}
	}
	m["serve.queue_wait_p50_ms"] = lane.WaitP50Ms
	m["serve.mean_batch"] = 0
	if b := win.after.Batches - win.before.Batches; b > 0 {
		m["serve.mean_batch"] = float64(win.after.Fused-win.before.Fused) / float64(b)
	}
}

func fmtList(xs []float64, verb string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(verb, x)
	}
	return s
}
