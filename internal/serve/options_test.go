package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// TestOptionsRoundTrip: every expressible parameter set survives
// ParseOptions → Encode → ParseOptions unchanged — the property that lets
// the router and the plan handoff re-issue requests from the typed value
// alone.
func TestOptionsRoundTrip(t *testing.T) {
	queries := []string{
		"",
		"spec=paper",
		"spec=reduced&elemx=12&elemy=10&ftheta=25&fphi=27&fdepth=80",
		"arch=tablesteer&window=rect&precision=i16",
		"arch=exact&precision=float64",
		"budget=none",
		"budget=1048576&transmits=4",
		"transmits=2&lane=bulk&deadline_ms=250",
		"out=scanline&theta=3&phi=5",
		"fmt=i16&resp=f32",
		"precision=i16&fmt=i16",
		"fmt=f64",
		"spec=paper&elemx=16&elemy=16&ftheta=33&fphi=33&fdepth=100", // reduced, spelled via paper
	}
	for _, qs := range queries {
		t.Run(qs, func(t *testing.T) {
			q, err := url.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			first, err := ParseOptions(q, nil)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			enc, err := first.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			second, err := ParseOptions(enc, nil)
			if err != nil {
				t.Fatalf("reparse %q: %v", enc.Encode(), err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("round trip changed the options:\n first: %+v\nsecond: %+v\n  (enc %q)",
					first, second, enc.Encode())
			}
			if first.Fingerprint() != second.Fingerprint() {
				t.Errorf("round trip changed the fingerprint")
			}
			// Canonical form is a fixed point: encoding the reparse yields
			// byte-identical query strings.
			enc2, err := second.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if enc.Encode() != enc2.Encode() {
				t.Errorf("canonical encoding is not a fixed point: %q vs %q", enc.Encode(), enc2.Encode())
			}
		})
	}
}

// TestOptionsHeaderOverrides: the header half of the grammar (lane,
// deadline, f32 Accept) lands in the typed value and
// re-encodes as parameters, so one canonical form captures both spellings.
func TestOptionsHeaderOverrides(t *testing.T) {
	q, _ := url.ParseQuery("lane=interactive&deadline_ms=9999")
	hdr := http.Header{}
	hdr.Set("X-Ultrabeam-Lane", "bulk")
	hdr.Set("X-Ultrabeam-Deadline-Ms", "125")
	hdr.Set("Accept", "application/x-ultrabeam-f32")
	opts, err := ParseOptions(q, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Request.Lane != LaneBulk {
		t.Errorf("lane header did not win: %v", opts.Request.Lane)
	}
	if opts.Request.Deadline != 125*time.Millisecond {
		t.Errorf("deadline header did not win: %v", opts.Request.Deadline)
	}
	if opts.Resp != wire.EncodingF32 {
		t.Error("f32 Accept did not select the f32 response")
	}
	enc, err := opts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc.Get("lane") != "bulk" || enc.Get("deadline_ms") != "125" || enc.Get("resp") != "f32" {
		t.Errorf("headers did not re-encode as parameters: %q", enc.Encode())
	}
	reparsed, err := ParseOptions(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.Request.Lane != LaneBulk || reparsed.Request.Deadline != 125*time.Millisecond ||
		reparsed.Resp != wire.EncodingF32 {
		t.Errorf("re-encoded parameters lost a header override: %+v", reparsed)
	}
}

// TestOptionsEncodeRejectsInexpressible: programmatic values outside the
// grammar fail loudly instead of encoding to a lie.
func TestOptionsEncodeRejectsInexpressible(t *testing.T) {
	cases := map[string]func(*RequestOptions){
		"foreign spec": func(o *RequestOptions) { o.Request.Spec.C = 1234 },
		"custom transmits": func(o *RequestOptions) {
			o.Request.Config.Transmits = []delay.Transmit{{}}
		},
		"precision out of range": func(o *RequestOptions) {
			o.Request.Config.Precision = beamform.Precision(42)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			opts := RequestOptions{Request: SessionRequest{
				Spec:   core.ReducedSpec(),
				Config: core.SessionConfig{Cached: true, CacheBudget: -1},
			}}
			mutate(&opts)
			if _, err := opts.Encode(); err == nil {
				t.Error("Encode accepted an inexpressible value")
			}
		})
	}
}

// TestPlansPrewarmHandoff is the warm-store handoff round trip over HTTP:
// node A serves a partial-budget geometry and exports it as its canonical
// query alone; node B imports it cold via /v1/prewarm — with the
// per-transmit quota an older exporter would add, which B ignores —
// prefills exactly the budget's resident prefix in the background, and
// then serves the same frame bit-identically — no cached bytes crossed.
func TestPlansPrewarmHandoff(t *testing.T) {
	tsA, schedA := newSchedTestServer(t, SchedulerConfig{})
	tsB, schedB := newSchedTestServer(t, SchedulerConfig{})
	spec := servedSpec()
	bufs := tinyFrame(t, spec)

	// A partial budget (5 of the 10 depth blocks), so the handoff has a
	// prefix to reproduce.
	req := tinyRequest()
	req.Spec = spec
	sizing, cache, err := spec.NewSessionConfig(req.Config, req.Arch.NewProvider(spec))
	if err != nil {
		t.Fatal(err)
	}
	budget := cache.Shared().BlockBytes() * 5
	destroySession(sizing, cache)
	q := url.Values{"budget": {strconv.FormatInt(budget, 10)}}

	post := func(ts string) []byte {
		t.Helper()
		resp, err := http.Post(ts+"/v1/beamform?"+tinyQuery(q),
			wire.ContentType, bytes.NewReader(encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs}, 0)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("beamform: %s: %s", resp.Status, body)
		}
		return body
	}
	want := post(tsA.URL)
	heldA := schedA.Stats().Geometries[0].Cache.BytesResident
	if heldA <= 0 || heldA > budget {
		t.Fatalf("A's store holds %d bytes of a %d-byte raw budget", heldA, budget)
	}

	resp, err := http.Get(tsA.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var plans struct {
		Plans   []map[string]any `json:"plans"`
		Skipped int              `json:"skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(plans.Plans) != 1 || plans.Skipped != 0 {
		t.Fatalf("exported plans: %+v", plans)
	}
	plan := plans.Plans[0]
	if _, ok := plan["query"].(string); !ok || len(plan) != 1 {
		t.Fatalf("exported plan is not a bare query: %+v", plan)
	}

	// Replay on B, which has never seen the geometry, carrying a legacy
	// quota that would retain one block.
	plan["quota"] = []int{1}
	body, _ := json.Marshal(plan)
	presp, err := http.Post(tsB.URL+"/v1/prewarm", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("prewarm: %s: %s", presp.Status, pbody)
	}

	// The background fill completes: B's store reaches the budget's
	// resident prefix, the bytes A's holds, without one frame served.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := schedB.Stats()
		if len(st.Geometries) == 1 && st.Geometries[0].Cache != nil &&
			st.Geometries[0].Cache.Fills >= 5 {
			if cs := st.Geometries[0].Cache; cs.ResidentBlocks != 5 || cs.BytesResident != heldA {
				t.Fatalf("B's store: %+v, want the 5-block prefix", cs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prewarm never filled B's store: %+v", st.Geometries)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if got := post(tsB.URL); !bytes.Equal(got, want) {
		t.Error("prewarmed node serves different bytes than the exporter")
	}
}

// TestCloseWaitsForPrewarm: Close returns only after every background warm
// has finished. Each round prewarms an already-warm geometry whose store
// was just evicted, so the warm refills it at a millisecond per block, and
// closes at once: once Close has returned, the store's fill count must not
// move.
func TestCloseWaitsForPrewarm(t *testing.T) {
	if err := faultpoint.Activate("delaycache.fill=every:1:sleep=1ms"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Deactivate()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}
	for round := 0; round < 5; round++ {
		sched := NewScheduler(SchedulerConfig{})
		if _, err := sched.Submit(context.Background(), req, frame); err != nil { // builds the geometry
			t.Fatal(err)
		}
		sched.mu.Lock()
		store := sched.geoms[req.Fingerprint()].cache.Shared()
		sched.mu.Unlock()
		store.Evict()
		if err := sched.Prewarm(req); err != nil {
			t.Fatal(err)
		}
		sched.Close()
		fills := store.Stats().Fills
		time.Sleep(20 * time.Millisecond)
		if got := store.Stats().Fills; got != fills {
			t.Fatalf("round %d: %d blocks filled after Close returned", round, got-fills)
		}
	}
}

// TestPrewarmFillsBuiltGeometry: Prewarm of a geometry that is already
// built but whose store is not full — evicted after its first frame here,
// as a first frame that failed after Begin would leave it partly filled —
// warms the whole resident prefix in the background, with no frame sent:
// the store comes back to the bytes it held after the frame.
func TestPrewarmFillsBuiltGeometry(t *testing.T) {
	req := tinyRequest()
	sched := NewScheduler(SchedulerConfig{})
	defer sched.Close()
	if _, err := sched.Submit(context.Background(), req, [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}); err != nil {
		t.Fatal(err)
	}
	sched.mu.Lock()
	store := sched.geoms[req.Fingerprint()].cache.Shared()
	sched.mu.Unlock()
	full := store.Stats().BytesResident
	if !store.FullResidency() || full == 0 {
		t.Fatalf("the first frame left %d bytes resident in a full-residency store", full)
	}
	store.Evict()
	if err := sched.Prewarm(req); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); store.Stats().BytesResident != full; {
		if time.Now().After(deadline) {
			t.Fatalf("prewarm left the built geometry's store at %+v, want %d bytes", store.Stats(), full)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineOverflowRefused: a deadline_ms whose duration overflows
// time.Duration (9223372036855 would wrap to no deadline, 18446744073710 to
// a 0.45 ms one) is a 400 on the POST parameter and header and a refused
// stream hello (its refusal rows); the largest representable value still
// parses and round-trips.
func TestDeadlineOverflowRefused(t *testing.T) {
	const largest = 9223372036854
	opts, err := ParseOptions(url.Values{"deadline_ms": {strconv.Itoa(largest)}}, nil)
	if err != nil {
		t.Fatalf("deadline_ms=%d: %v", largest, err)
	}
	if opts.Request.Deadline != largest*time.Millisecond {
		t.Errorf("deadline_ms=%d parsed as %v", largest, opts.Request.Deadline)
	}
	enc, err := opts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParseOptions(enc, nil); err != nil || back.Request.Deadline != opts.Request.Deadline {
		t.Errorf("deadline_ms=%d does not round-trip: %v, %v", largest, back.Request.Deadline, err)
	}
	refuseRows(t)
}

// TestServerDeadlineParsing: the per-request deadline arrives as the
// deadline_ms query parameter or the X-Ultrabeam-Deadline-Ms header (the
// header wins), rejects garbage — a 400 on either transport, as its
// refusal row shows — and never leaks into the geometry fingerprint.
func TestServerDeadlineParsing(t *testing.T) {
	q := url.Values{"spec": {"reduced"}, "deadline_ms": {"250"}}
	opts, err := ParseOptions(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Request.Deadline != 250*time.Millisecond {
		t.Errorf("deadline_ms=250 parsed as %v", opts.Request.Deadline)
	}
	hopts, err := ParseOptions(q, http.Header{"X-Ultrabeam-Deadline-Ms": {"40"}})
	if err != nil {
		t.Fatal(err)
	}
	if hopts.Request.Deadline != 40*time.Millisecond {
		t.Errorf("header override parsed as %v, want 40ms", hopts.Request.Deadline)
	}
	if opts.Fingerprint() != hopts.Fingerprint() {
		t.Error("deadline must not split the geometry fingerprint")
	}
	for _, bad := range []string{"0", "-5", "soon", "1.5"} {
		if _, err := ParseOptions(url.Values{"spec": {"reduced"}, "deadline_ms": {bad}}, nil); err == nil {
			t.Errorf("deadline_ms=%q accepted", bad)
		}
	}
	refuseRows(t)
}
