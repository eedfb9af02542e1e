package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ultrabeam/internal/core"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// encodeFrame serializes one single-transmit frame as an f64 wire frame:
// the bit-exact body every precision accepts.
func encodeFrame(bufs []rf.EchoBuffer) []byte {
	f, err := wire.NewFrame(wire.EncodingF64, len(bufs), len(bufs[0].Samples), 0, 1, flatten(bufs))
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, f, 0); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// decodeFloats parses a binary float64 response body.
func decodeFloats(t *testing.T, body []byte) []float64 {
	t.Helper()
	if len(body)%8 != 0 {
		t.Fatalf("response body is %d bytes, not a float64 multiple", len(body))
	}
	out := make([]float64, len(body)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return out
}

// tinyQuery returns the query string selecting the tinySpec geometry.
func tinyQuery(extra url.Values) string {
	s := tinySpec()
	q := url.Values{
		"spec":  {"reduced"},
		"elemx": {strconv.Itoa(s.ElemX)}, "elemy": {strconv.Itoa(s.ElemY)},
		"ftheta": {strconv.Itoa(s.FocalTheta)}, "fphi": {strconv.Itoa(s.FocalPhi)},
		"fdepth": {strconv.Itoa(s.FocalDepth)},
	}
	for k, vs := range extra {
		q[k] = vs
	}
	return q.Encode()
}

func newSchedTestServer(t *testing.T, sc SchedulerConfig) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched := NewScheduler(sc)
	t.Cleanup(sched.Close)
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, sched
}

func TestServerHealthz(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

// TestServerBeamformVolume posts a frame on the tinySpec geometry — but the
// tinySpec DepthLambda stays at the reduced default here, since the server
// only takes grid overrides — and checks the returned volume matches a
// direct session run on the same inputs bit for bit.
func TestServerBeamformVolume(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda // the server has no depth override
	bufs := tinyFrame(t, spec)

	req := tinyRequest()
	req.Spec = spec
	solo, _, err := spec.NewSessionConfig(req.Config, req.Arch.NewProvider(spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runFrame(solo, bufs)
	solo.Close()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/beamform?"+tinyQuery(nil),
		wire.ContentType, bytes.NewReader(encodeFrame(bufs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beamform: %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Ultrabeam-Depth"); got != strconv.Itoa(spec.FocalDepth) {
		t.Errorf("depth header = %q", got)
	}
	vol := decodeFloats(t, body)
	if len(vol) != len(ref.Data) {
		t.Fatalf("volume has %d points, want %d", len(vol), len(ref.Data))
	}
	for i := range ref.Data {
		if vol[i] != ref.Data[i] {
			t.Fatalf("served volume differs from direct session at %d", i)
		}
	}
	// The scheduler kept the geometry warm.
	if st := sched.Stats(); st.GeometriesLive != 1 || st.Completed != 1 {
		t.Errorf("scheduler after one request: live=%d completed=%d", st.GeometriesLive, st.Completed)
	}

	// Second request on the same geometry reuses the warm session and its
	// store: the cache hit counter moves.
	resp2, err := http.Post(ts.URL+"/v1/beamform?"+tinyQuery(url.Values{"out": {"scanline"}}),
		wire.ContentType, bytes.NewReader(encodeFrame(bufs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("scanline: %s: %s", resp2.Status, body2)
	}
	line := decodeFloats(t, body2)
	if len(line) != spec.FocalDepth {
		t.Fatalf("scanline has %d samples, want %d", len(line), spec.FocalDepth)
	}
	it, ip := spec.FocalTheta/2, spec.FocalPhi/2
	want := ref.Scanline(it, ip)
	for i := range want {
		if line[i] != want[i] {
			t.Fatalf("served scanline differs from direct session at depth %d", i)
		}
	}
	st := sched.Stats()
	if st.GeometriesLive != 1 {
		t.Errorf("second request built another geometry: live=%d", st.GeometriesLive)
	}
	if st.Geometries[0].Cache == nil || st.Geometries[0].Cache.Hits == 0 {
		t.Errorf("second frame hit no cached blocks: %+v", st.Geometries[0].Cache)
	}
	if st.Geometries[0].Frames != 2 {
		t.Errorf("geometry frames = %d, want 2", st.Geometries[0].Frames)
	}
}

func TestServerStats(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	resp, err := http.Post(ts.URL+"/v1/beamform?"+tinyQuery(nil),
		wire.ContentType, bytes.NewReader(encodeFrame(bufs)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st SchedulerStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.GeometriesLive != 1 || len(st.Geometries) != 1 {
		t.Fatalf("stats: %+v", st)
	}
	g := st.Geometries[0]
	if g.Frames != 1 || g.Cache == nil || g.Cache.Misses == 0 {
		t.Errorf("geometry stats: %+v", g)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	frame := encodeFrame(tinyFrame(t, spec))
	cases := map[string]struct {
		query string
		body  []byte
	}{
		"bad spec":        {query: "spec=nope", body: frame},
		"bad arch":        {query: tinyQuery(url.Values{"arch": {"nope"}}), body: frame},
		"bad out":         {query: tinyQuery(url.Values{"out": {"nope"}}), body: frame},
		"empty body":      {query: tinyQuery(nil), body: nil},
		"ragged body":     {query: tinyQuery(nil), body: make([]byte, 12)},
		"scanline range":  {query: tinyQuery(url.Values{"out": {"scanline"}, "theta": {"999"}}), body: frame},
		"missing 2nd tx":  {query: tinyQuery(url.Values{"transmits": {"2"}}), body: frame},
		"budget garbage":  {query: tinyQuery(url.Values{"budget": {"lots"}}), body: frame},
		"elemx non-digit": {query: tinyQuery(url.Values{"elemx": {"x"}}), body: frame},
	}
	for name, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/beamform?"+c.query,
			wire.ContentType, bytes.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServerOverloadMapsTo503: a full geometry queue refuses the upload
// with 503 and a Retry-After hint before its payload is decoded.
func TestServerOverloadMapsTo503(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxQueue: 1})
	q, err := url.ParseQuery(tinyQuery(nil))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ParseOptions(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the geometry's only queue slot with an upload that never
	// completes, so the HTTP request below must be refused.
	pend, err := sched.Begin(opts.Request)
	if err != nil {
		t.Fatal(err)
	}
	defer pend.Abort()

	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	resp, err := http.Post(ts.URL+"/v1/beamform?"+tinyQuery(nil),
		wire.ContentType, bytes.NewReader(encodeFrame(tinyFrame(t, spec))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded POST: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overloaded POST carries no Retry-After hint")
	}
}

// TestServerOversizedBodyIs413: a frame whose declared payload exceeds the
// body cap is refused on its header, before any payload byte is read.
func TestServerOversizedBodyIs413(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{})
	defer sched.Close()
	srv, err := NewServer(ServerConfig{Scheduler: sched, MaxBodyBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	resp, err := http.Post(ts.URL+"/v1/beamform?"+tinyQuery(nil),
		wire.ContentType, bytes.NewReader(encodeFrame(tinyFrame(t, spec))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestServerScheduledBitIdentity: the scheduled serving mode returns the
// same bytes as a direct session — queueing and lanes change when a frame
// runs, never what it computes — and the lane routing is wire-visible:
// the X-Ultrabeam-Lane header wins over the lane= parameter, and both land
// in the per-lane dispatch counters.
func TestServerScheduledBitIdentity(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)

	req := tinyRequest()
	req.Spec = spec
	solo, _, err := spec.NewSessionConfig(req.Config, req.Arch.NewProvider(spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runFrame(solo, bufs)
	solo.Close()
	if err != nil {
		t.Fatal(err)
	}

	post := func(query string, lane string) *http.Response {
		t.Helper()
		hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/beamform?"+query,
			bytes.NewReader(encodeFrame(bufs)))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", wire.ContentType)
		if lane != "" {
			hr.Header.Set("X-Ultrabeam-Lane", lane)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(tinyQuery(nil), "")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scheduled beamform: %s: %s", resp.Status, body)
	}
	vol := decodeFloats(t, body)
	for i := range ref.Data {
		if vol[i] != ref.Data[i] {
			t.Fatalf("scheduled volume differs from direct session at %d", i)
		}
	}

	// lane= parameter routes to bulk; the header overrides it back the
	// other way ("cine" aliasing bulk exercises the alias on the wire).
	resp2 := post(tinyQuery(url.Values{"lane": {"bulk"}}), "")
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	resp3 := post(tinyQuery(url.Values{"lane": {"interactive"}}), "cine")
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp2.StatusCode != http.StatusOK || resp3.StatusCode != http.StatusOK {
		t.Fatalf("lane posts: %s / %s", resp2.Status, resp3.Status)
	}

	st := sched.Stats()
	if st.Completed != 3 || st.GeometriesLive != 1 {
		t.Fatalf("scheduler after three requests: completed=%d live=%d", st.Completed, st.GeometriesLive)
	}
	if n := st.Lanes["interactive"].Dispatched; n != 1 {
		t.Errorf("interactive dispatched = %d, want 1", n)
	}
	if n := st.Lanes["bulk"].Dispatched; n != 2 {
		t.Errorf("bulk dispatched = %d, want 2 (lane param + header override)", n)
	}

	// Bad lane names are a client error.
	resp4 := post(tinyQuery(url.Values{"lane": {"express"}}), "")
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("bad lane: status %d, want 400", resp4.StatusCode)
	}
}

// TestServerScheduledStats scrapes /v1/stats: the JSON must carry the
// scheduler shape — lane wait percentiles, dispatch counters, queue
// depth — that the CI smoke test greps for.
func TestServerScheduledStats(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	resp, err := http.Post(ts.URL+"/v1/beamform?"+tinyQuery(nil),
		wire.ContentType, bytes.NewReader(encodeFrame(bufs)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beamform: %s", resp.Status)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	raw, _ := io.ReadAll(sresp.Body)
	var st SchedulerStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats decode: %v\n%s", err, raw)
	}
	if st.Completed != 1 || st.GeometriesLive != 1 || st.Batches != 1 || st.Fused != 1 {
		t.Fatalf("scheduler stats: %s", raw)
	}
	lane, ok := st.Lanes["interactive"]
	if !ok || lane.Dispatched != 1 {
		t.Errorf("interactive lane stats missing: %s", raw)
	}
	if lane.WaitP99Ms < 0 {
		t.Errorf("negative wait percentile: %+v", lane)
	}
	if len(st.Geometries) != 1 || st.Geometries[0].Frames != 1 {
		t.Errorf("geometry stats: %s", raw)
	}
	for _, key := range []string{`"lanes"`, `"batches"`, `"batched_frames"`, `"queued"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("stats JSON lacks %s:\n%s", key, raw)
		}
	}
	for _, key := range []string{`"max_batch"`, `"batch_size_counts"`} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("stats JSON still carries %s:\n%s", key, raw)
		}
	}
}

// TestServerConfigNeedsScheduler: the scheduler is the one serving mode, so
// a server without one is refused at construction.
func TestServerConfigNeedsScheduler(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("server config without a scheduler accepted")
	}
}

// TestServerRejectsRemovedSurface pins the request surface that no longer
// exists: the float32/wide precisions, the raw-body format, a headerless
// float64 body and the unversioned routes each get a client error naming
// what survives — never a 500, a hang, or a queued slot.
func TestServerRejectsRemovedSurface(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	frame := encodeFrame(bufs)
	rawF64 := make([]byte, 8*len(bufs)*len(bufs[0].Samples))
	for i, v := range flatten(bufs) {
		binary.LittleEndian.PutUint64(rawF64[8*i:], math.Float64bits(v))
	}
	query := func(k, v string) string { return "/v1/beamform?" + tinyQuery(url.Values{k: {v}}) }
	cases := []struct {
		name, method, path, ct string
		body                   []byte
		status                 int
		msg                    string // substring the error body must carry
	}{
		{"precision=float32", "POST", query("precision", "float32"), wire.ContentType, frame, 400, "float64|i16"},
		{"precision=wide", "POST", query("precision", "wide"), wire.ContentType, frame, 400, "float64|i16"},
		{"precision=narrow", "POST", query("precision", "narrow"), wire.ContentType, frame, 400, "float64|i16"},
		{"fmt=raw", "POST", query("fmt", "raw"), "application/octet-stream", rawF64, 400, "i16|f32|f64"},
		{"raw f64 body", "POST", "/v1/beamform?" + tinyQuery(nil), "application/octet-stream", rawF64, 400, "magic"},
		{"unversioned beamform", "POST", "/beamform?" + tinyQuery(nil), wire.ContentType, frame, 404, ""},
		{"unversioned healthz", "GET", "/healthz", "", nil, 404, ""},
		{"unversioned stats", "GET", "/stats", "", nil, 404, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.ct != "" {
				req.Header.Set("Content-Type", c.ct)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status || !strings.Contains(string(body), c.msg) {
				t.Errorf("status %d %q, want %d naming %q", resp.StatusCode, body, c.status, c.msg)
			}
		})
	}
	if st := sched.Stats(); st.Submits != 0 || st.GeometriesLive != 0 {
		t.Errorf("rejected requests reached the scheduler: submits=%d geometries=%d", st.Submits, st.GeometriesLive)
	}
}
