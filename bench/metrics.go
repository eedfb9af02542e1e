package main

// metricDef names one reported metric. The tables below are the harness's
// side of BENCHMARK.json (TestBenchmarkJSONMatches holds the two together):
// every end-to-end metric carries the bound by which it may read worse
// before a change counts as a regression, per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // share of the reference value; 0 on per-layer metrics
}

// endToEnd is what a user of the served system sees, per workload.
//
// setup_s, volumes_per_s and the two latencies are in reference time (wall
// time ÷ the host factor measured around the interval, machine.go): in wall
// time ten runs of one commit on the 2-vCPU sizing host spread 15–50 %
// (interquartile range over median) whenever a neighbour is busy, which is
// most hours; in reference time the same runs spread 4–15 %. Their bounds
// are still 0.25, not the 0.10/0.15 the benchmark was specified with: a
// bound a same-commit rerun cannot hold three times over is not a bound.
//
// ok_ratio is 1 − failed_ratio: the benchmark contract wants metrics that
// are never 0, and failed_ratio is 0 on every passing run. failed_ratio
// itself is still printed and still in the -json record, and any failure
// makes the command exit non-zero whatever the ratio.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"volumes_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
	{"psnr_db", "dB", "higher", 0.2},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// perLayer is the traced pass, layer = module name. README.md says which
// end-to-end metric each is expected to move, and on which workload.
var perLayer = []metricDef{
	{"tablefree.fill16_mdelays_per_s", "Mdelays/s", "higher", 0},
	{"tablefree.fill16_over_unit_law", "ratio", "higher", 0},
	{"tablesteer.fill16_mdelays_per_s", "Mdelays/s", "higher", 0},
	{"tablesteer.build_ms", "ms", "lower", 0},
	{"delay.exact_fill16_mdelays_per_s", "Mdelays/s", "higher", 0},
	{"delaycache.warm_ms", "ms", "lower", 0},
	{"delaycache.resident_mb", "MB", "lower", 0},
	{"delaycache.hit_lookup_ns", "ns", "lower", 0},
	{"delaycache.hit_ratio", "ratio", "higher", 0},
	{"wire.decode_i16_ms", "ms", "lower", 0},
	{"wire.decode_f64_ms", "ms", "lower", 0},
	{"wire.decode_gbps", "GB/s", "higher", 0},
	{"rf.plane_i16_ms", "ms", "lower", 0},
	{"rf.plane32_ms", "ms", "lower", 0},
	{"wire.write_volume_ms", "ms", "lower", 0},
	{"wire.read_volume_ms", "ms", "lower", 0},
	{"wire.request_mb_per_volume", "MB", "lower", 0},
	{"wire.reply_mb_per_volume", "MB", "lower", 0},
	{"beamform.accumulate_ms", "ms", "lower", 0},
	{"beamform.kernel_gbps", "GB/s", "higher", 0},
	{"beamform.kernel_over_memcpy", "ratio", "higher", 0},
	{"beamform.fill_accumulate_ms", "ms", "lower", 0},
	{"beamform.accumulate_w1_ms", "ms", "lower", 0},
	{"beamform.scaling_eff", "ratio", "higher", 0},
	{"serve.submit_ms", "ms", "lower", 0},
	{"serve.sched_overhead_ms", "ms", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.cold_first_volume_ms", "ms", "lower", 0},
	{"serve.warm_slow_volumes", "count", "lower", 0},
	{"serve.parse_fingerprint_us", "us", "lower", 0},
	{"serve.transport_residual_ms", "ms", "lower", 0},
	{"cluster.ring_owner_ns", "ns", "lower", 0},
	{"cluster.relay_frame_gbps", "GB/s", "higher", 0},
	{"client.encode_body_ms", "ms", "lower", 0},
	{"machine.memcpy_gbps", "GB/s", "higher", 0},
	{"machine.calib_ms", "ms", "lower", 0},
	{"machine.calib_drift", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
}

// exactCounts are metrics that are counts, not timings: two runs of one
// commit must print them equal.
var exactCounts = map[string]bool{
	"ok_ratio":                   true,
	"delaycache.hit_ratio":       true,
	"wire.request_mb_per_volume": true,
	"wire.reply_mb_per_volume":   true,
}
