package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var raceDetector bool // set by race_test.go under -race

// TestSmoke runs the whole harness — all four workloads, the golden check,
// both passes, the trace round trip — at smoke counts, so `go test ./...`
// keeps it compiling and passing. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end: tens of seconds")
	}
	if raceDetector {
		t.Skip("smoke windows are one wall-clock second; run `go run -race ./bench -trace 1 -workload …` for a race pass")
	}
	dir := t.TempDir()
	record := filepath.Join(dir, "smoke.json")
	if code := run([]string{"-smoke", "-out", dir, "-json", record}); code != 0 {
		t.Fatalf("bench -smoke exited %d", code)
	}
	raw, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Sets [][]result `json:"sets"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Sets) != 1 || len(rec.Sets[0]) != 2*len(workloads) {
		t.Fatalf("record holds %d sets, want 1 of %d results", len(rec.Sets), 2*len(workloads))
	}
	// Exact counts the scheduler itself reports, in workload order.
	wantHit := []float64{1, 1, 0, 0.5}
	for i, w := range workloads {
		e2e, traced := rec.Sets[0][2*i], rec.Sets[0][2*i+1]
		if e2e.Workload != w.name || traced.Workload != w.name {
			t.Fatalf("results %d: %s/%s, want %s", i, e2e.Workload, traced.Workload, w.name)
		}
		for _, d := range endToEnd {
			if v, ok := e2e.Metrics[d.name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, d.name, v)
			}
		}
		for _, d := range perLayer {
			if v, ok := traced.Metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v, want a finite value", w.name, d.name, v)
			}
		}
		if got := traced.Metrics["delaycache.hit_ratio"]; math.Abs(got-wantHit[i]) > 0.02 {
			t.Errorf("%s: delaycache.hit_ratio = %v, want %v", w.name, got, wantHit[i])
		}
		if w.bitIdentical && e2e.Metrics["psnr_db"] != psnrIdentical {
			t.Errorf("%s: psnr_db = %v, want %v (bit-identical)", w.name, e2e.Metrics["psnr_db"], psnrIdentical)
		}
		if _, _, err := readTrace(filepath.Join(dir, "trace-"+w.name+".jsonl")); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables the harness
// reports from: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, pair := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", bm.EndToEnd, endToEnd}, {"per_layer", bm.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", pair.kind, len(pair.json), len(pair.defs))
		}
		for i, d := range pair.defs {
			if got := pair.json[i]; got != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", pair.kind, i, got, d)
			}
		}
	}
}

// TestTraceCheckRejects feeds readTrace the ways a span file can be
// malformed; the harness runs the same check on its own output before it
// exits.
func TestTraceCheckRejects(t *testing.T) {
	for name, lines := range map[string]string{
		"child leaves parent": `{"name":"volume","id":"replay-0","parent":"","start_ns":10,"end_ns":20}
{"name":"wire.decode","id":"replay-0/wire.decode","parent":"replay-0","start_ns":15,"end_ns":25}`,
		"missing parent":    `{"name":"wire.decode","id":"replay-0/wire.decode","parent":"replay-0","start_ns":15,"end_ns":25}`,
		"ends before start": `{"name":"volume","id":"replay-0","parent":"","start_ns":20,"end_ns":10}`,
		"duplicate id": `{"name":"volume","id":"replay-0","parent":"","start_ns":10,"end_ns":20}
{"name":"volume","id":"replay-0","parent":"","start_ns":30,"end_ns":40}`,
		"empty": ``,
	} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readTrace(path); err == nil {
			t.Errorf("%s: readTrace accepted it", name)
		}
	}
	good := `{"name":"volume","id":"replay-0","parent":"","start_ns":10,"end_ns":30}
{"name":"wire.decode","id":"replay-0/wire.decode","parent":"replay-0","start_ns":10,"end_ns":18}
{"name":"serve.submit","id":"replay-0/serve.submit","parent":"replay-0","start_ns":18,"end_ns":27}`
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	roots, children, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	lt := layerTimes(roots, children, "replay")
	if got := lt["volume.self"]; len(got) != 1 || got[0] != 3e-6 {
		t.Errorf("self time = %v ms, want 20 − 8 − 9 = 3 ns", got)
	}
	if names := slices.Sorted(maps.Keys(lt)); strings.Join(names, ",") != "serve.submit,volume,volume.self,wire.decode" {
		t.Errorf("layer names = %v", names)
	}
}
