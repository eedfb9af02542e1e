package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"ultrabeam/internal/core"
	"ultrabeam/internal/serve"
	"ultrabeam/internal/wire"
	"ultrabeam/pkg/client"
)

// The test geometry: reduced Table I shrunk to an 8×8 aperture and a
// 5×3×10 focal grid, named by the same /v1 query the router shards on.
const testQuery = "spec=reduced&elemx=8&elemy=8&ftheta=5&fphi=3&fdepth=10"

func testSpec() core.SystemSpec {
	spec := core.ReducedSpec()
	spec.ElemX, spec.ElemY = 8, 8
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 5, 3, 10
	return spec
}

func testSamples(spec core.SystemSpec) []float64 {
	s := make([]float64, spec.Elements()*spec.EchoBufferSamples())
	for i := range s {
		s[i] = math.Sin(float64(i%211) * 0.13)
	}
	return s
}

func fingerprint(t *testing.T, query string) string {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := serve.ParseOptions(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return opts.Fingerprint()
}

// node is one live backend: a real scheduler-mode serve.Server on HTTP
// and cine stream listeners.
type node struct {
	name  string
	sched *serve.Scheduler
	srv   *serve.Server
	be    Backend
}

func startNode(t *testing.T, name string) *node {
	t.Helper()
	sched := serve.NewScheduler(serve.SchedulerConfig{MaxGeometries: 8})
	srv, err := serve.NewServer(serve.ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeStream(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-done
		hts.Close()
		sched.Close()
	})
	return &node{
		name:  name,
		sched: sched,
		srv:   srv,
		be: Backend{
			Name:       name,
			Addr:       strings.TrimPrefix(hts.URL, "http://"),
			StreamAddr: ln.Addr().String(),
		},
	}
}

// startRouter brings up a Router over the nodes with a settled health
// view, its HTTP handler on a test server and its stream proxy listening.
func startRouter(t *testing.T, nodes ...*node) (*Router, string, string) {
	t.Helper()
	var backends []Backend
	for _, n := range nodes {
		backends = append(backends, n.be)
	}
	return serveRouter(t, backends...)
}

// serveRouter is startRouter over any backends, stubs included.
func serveRouter(t *testing.T, backends ...Backend) (*Router, string, string) {
	t.Helper()
	r := New(Config{Backends: backends, HealthInterval: 100 * time.Millisecond, Retries: 8, Logf: t.Logf})
	r.CheckNow(context.Background())
	hts := httptest.NewServer(r.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.ServeStream(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-done
		hts.Close()
		r.Close()
	})
	return r, strings.TrimPrefix(hts.URL, "http://"), ln.Addr().String()
}

func TestRingConsistency(t *testing.T) {
	r3 := NewRing([]string{"a", "b", "c"}, 0)
	r2 := NewRing([]string{"a", "b"}, 0)

	owned := map[string]int{}
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("geom-%d", i)
		o3 := r3.Owner(key)
		owned[o3]++
		if o3 != NewRing([]string{"a", "b", "c"}, 0).Owner(key) {
			t.Fatal("ring lookup is not deterministic")
		}
		// Consistency: removing c must not move keys owned by a or b.
		if o3 != "c" && r2.Owner(key) != o3 {
			t.Errorf("key %s moved %s → %s when c left", key, o3, r2.Owner(key))
		}
		if o3 == "c" {
			moved++
		}
	}
	for _, n := range []string{"a", "b", "c"} {
		if owned[n] < 30 { // expect ~100 each; catch gross imbalance
			t.Errorf("node %s owns only %d/300 keys", n, owned[n])
		}
	}
	if moved == 0 {
		t.Error("node c owned nothing — the consistency assertion tested nothing")
	}
	if NewRing(nil, 0).Owner("x") != "" {
		t.Error("empty ring must own nothing")
	}
}

// TestRouterShardsAndProxiesVerbatim: each geometry routes to exactly one
// stable owner, and the volume through the router is bit-identical to the
// one the owner serves directly.
func TestRouterShardsAndProxiesVerbatim(t *testing.T) {
	a, b := startNode(t, "node-a"), startNode(t, "node-b")
	_, addr, _ := startRouter(t, a, b)

	spec := testSpec()
	samples := testSamples(spec)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	through := &client.Client{Addr: addr, Retries: 8}

	for _, q := range []string{
		testQuery,
		testQuery + "&precision=i16",
		"spec=reduced&elemx=8&elemy=8&ftheta=7&fphi=3&fdepth=10",
	} {
		r1, err := through.Post(ctx, q, "f64", spec.Elements(), spec.EchoBufferSamples(), samples)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		owner := r1.Header.Get("X-Ultrabeam-Backend")
		if owner == "" {
			t.Fatalf("%s: no backend header", q)
		}
		r2, err := through.Post(ctx, q, "f64", spec.Elements(), spec.EchoBufferSamples(), samples)
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.Header.Get("X-Ultrabeam-Backend"); got != owner {
			t.Errorf("%s: owner flapped %s → %s", q, owner, got)
		}
		// Direct to the owner: the proxy must not have touched a byte.
		var ownerAddr string
		for _, n := range []*node{a, b} {
			if n.name == owner {
				ownerAddr = n.be.Addr
			}
		}
		direct, err := (&client.Client{Addr: ownerAddr, Retries: 8}).
			Post(ctx, q, "f64", spec.Elements(), spec.EchoBufferSamples(), samples)
		if err != nil {
			t.Fatal(err)
		}
		if !equalF64(r1.Data, r2.Data) || !equalF64(r1.Data, direct.Data) {
			t.Errorf("%s: routed volume differs from direct serving", q)
		}
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRetryAfterPassthrough: a backend 503 crosses the router with its
// queue-derived Retry-After untouched — the router synthesizes its own
// hint only when it has no backend at all.
func TestRetryAfterPassthrough(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/beamform", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "9")
		http.Error(w, "overloaded: 42 queued", http.StatusServiceUnavailable)
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	r := New(Config{Backends: []Backend{{Name: "stub", Addr: strings.TrimPrefix(stub.URL, "http://")}}})
	r.CheckNow(context.Background())
	defer r.Close()
	hts := httptest.NewServer(r.Handler())
	defer hts.Close()

	c := &client.Client{Addr: strings.TrimPrefix(hts.URL, "http://"), Retries: -1}
	_, err := c.Post(context.Background(), testQuery, "f64", 1, 1, []float64{1})
	var he *client.HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HTTPError", err)
	}
	if he.StatusCode != http.StatusServiceUnavailable || he.RetryAfter != "9" {
		t.Errorf("router rewrote the backend's hint: HTTP %d Retry-After %q (want 503, %q)",
			he.StatusCode, he.RetryAfter, "9")
	}
	if !strings.Contains(he.Body, "42 queued") {
		t.Errorf("backend error body rewritten: %q", he.Body)
	}
}

// TestRouterRejectsRemovedSurface pins the router's half of the removed
// request surface: the float32/wide precisions and fmt=raw are refused on
// the router's own parse with a message naming what survives, a headerless
// float64 body crosses to the owner and comes back as its 400, the
// unversioned routes are gone, and backends are probed on /v1/healthz.
func TestRouterRejectsRemovedSurface(t *testing.T) {
	n := startNode(t, "node-a")
	_, addr, _ := startRouter(t, n)
	spec := testSpec()
	rawF64 := make([]byte, 8*spec.Elements()*spec.EchoBufferSamples())
	cases := []struct {
		name, method, path, ct string
		body                   []byte
		status                 int
		msg                    string
	}{
		{"precision=float32", "POST", "/v1/beamform?" + testQuery + "&precision=float32", wire.ContentType, nil, 400, "float64|i16"},
		{"precision=wide", "POST", "/v1/beamform?" + testQuery + "&precision=wide", wire.ContentType, nil, 400, "float64|i16"},
		{"precision=narrow", "POST", "/v1/beamform?" + testQuery + "&precision=narrow", wire.ContentType, nil, 400, "float64|i16"},
		{"fmt=raw", "POST", "/v1/beamform?" + testQuery + "&fmt=raw", "application/octet-stream", rawF64, 400, "i16|f32|f64"},
		{"raw f64 body", "POST", "/v1/beamform?" + testQuery, "application/octet-stream", rawF64, 400, "magic"},
		{"unversioned beamform", "POST", "/beamform?" + testQuery, wire.ContentType, nil, 404, ""},
		{"unversioned healthz", "GET", "/healthz", "", nil, 404, ""},
		{"unversioned stats", "GET", "/stats", "", nil, 404, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, "http://"+addr+c.path, bytes.NewReader(c.body))
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
	if st := n.sched.Stats(); st.Submits != 0 {
		t.Errorf("rejected requests reached the backend scheduler: %d submits", st.Submits)
	}

	t.Run("probe on /v1/healthz", func(t *testing.T) {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
		stub := httptest.NewServer(mux)
		defer stub.Close()
		r := New(Config{Backends: []Backend{{Name: "stub", Addr: strings.TrimPrefix(stub.URL, "http://")}}})
		defer r.Close()
		r.CheckNow(context.Background())
		if _, ok := r.Owner(fingerprint(t, testQuery)); !ok {
			t.Error("a backend answering only /v1/healthz is not in the ring")
		}
	})
}

func TestNoBackendSynthesized503(t *testing.T) {
	// One backend that is down (nothing listens there).
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()

	r := New(Config{Backends: []Backend{{Name: "dead", Addr: addr}}, HealthInterval: 3 * time.Second})
	r.CheckNow(context.Background())
	defer r.Close()
	hts := httptest.NewServer(r.Handler())
	defer hts.Close()

	c := &client.Client{Addr: strings.TrimPrefix(hts.URL, "http://"), Retries: -1}
	_, perr := c.Post(context.Background(), testQuery, "f64", 1, 1, []float64{1})
	var he *client.HTTPError
	if !errors.As(perr, &he) {
		t.Fatalf("got %v, want *HTTPError", perr)
	}
	if he.StatusCode != http.StatusServiceUnavailable || he.RetryAfter != "3" {
		t.Errorf("no-backend 503 carried Retry-After %q, want the 3s health interval", he.RetryAfter)
	}

	// The router's own healthz reflects the empty ring.
	resp, err := http.Get("http://" + strings.TrimPrefix(hts.URL, "http://") + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("router healthz %d with no live backends", resp.StatusCode)
	}
}

// TestRebalanceOnDrain is the warm-handoff contract end to end: drain the
// owner, let the router ship its canonical query to the survivor, and the
// survivor serves the same geometry bit-identically — without one cached
// byte having crossed the network.
func TestRebalanceOnDrain(t *testing.T) {
	a, b := startNode(t, "node-a"), startNode(t, "node-b")
	r, addr, _ := startRouter(t, a, b)

	spec := testSpec()
	samples := testSamples(spec)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	through := &client.Client{Addr: addr, Retries: 8}

	before, err := through.Post(ctx, testQuery, "f64", spec.Elements(), spec.EchoBufferSamples(), samples)
	if err != nil {
		t.Fatal(err)
	}
	ownerName := before.Header.Get("X-Ultrabeam-Backend")
	owner, survivor := a, b
	if ownerName == b.name {
		owner, survivor = b, a
	}

	// Drain the owner. Its healthz flips to the 503 drain contract; the
	// next health sweep drops it from the ring but keeps it as a plan
	// source, and the rebalance ships the geometry to the survivor.
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		owner.srv.Shutdown(dctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.CheckNow(ctx)
		if be, ok := r.Owner(fingerprint(t, testQuery)); ok && be.Name == survivor.name {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never left the ring")
		}
		time.Sleep(20 * time.Millisecond)
	}
	r.Rebalance(ctx)
	prewarms := r.stats.PrewarmsSent.Load()
	if prewarms < 1 {
		t.Errorf("rebalance shipped %d plans, want ≥1", prewarms)
	}

	after, err := through.Post(ctx, testQuery, "f64", spec.Elements(), spec.EchoBufferSamples(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.Header.Get("X-Ultrabeam-Backend"); got != survivor.name {
		t.Errorf("post-drain request served by %s, want %s", got, survivor.name)
	}
	if !equalF64(before.Data, after.Data) {
		t.Error("volume changed across the warm handoff")
	}
	<-drainDone
}

// TestStreamRehomeMidStream: kill the owner under a live cine stream.
// The router consumes the GOAWAY, re-homes the stream to the next owner,
// resends the unanswered compounds — and the client, which never
// reconnects, reads every volume bit-identical to the first.
func TestStreamRehomeMidStream(t *testing.T) {
	a, b := startNode(t, "node-a"), startNode(t, "node-b")
	r, _, streamAddr := startRouter(t, a, b)

	spec := testSpec()
	samples := testSamples(spec)
	query := testQuery + "&precision=i16&fmt=i16"
	fp := fingerprint(t, query)

	c := &client.Client{StreamAddr: streamAddr, Retries: 8, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s, err := c.DialStream(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	frame := client.Frame{Elements: spec.Elements(), Window: spec.EchoBufferSamples(), Samples: samples}
	recv := func() *client.Volume {
		t.Helper()
		v, err := s.Recv(ctx)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		return v
	}

	// Two compounds warm the owner and give us the reference volume.
	for i := 0; i < 2; i++ {
		if err := s.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	ref := recv()
	if !equalF64(ref.Data, recv().Data) {
		t.Fatal("same-input compounds disagree before the kill")
	}

	ownerBE, ok := r.Owner(fp)
	if !ok {
		t.Fatal("no owner")
	}
	owner := a
	if ownerBE.Name == b.name {
		owner = b
	}
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer dcancel()
		owner.srv.Shutdown(dctx)
	}()

	// Keep streaming through the kill: every one of these compounds is
	// either answered by the draining owner or re-homed and resent.
	const n = 4
	for i := 0; i < n; i++ {
		if err := s.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if v := recv(); !equalF64(ref.Data, v.Data) {
			t.Errorf("volume %d after the kill differs from the reference", i)
		}
	}
	if s.Reconnects() != 0 {
		t.Errorf("client reconnected %d times — the re-home leaked through the proxy", s.Reconnects())
	}
	rehomes := r.stats.Rehomes.Load()
	if rehomes < 1 {
		t.Error("router never re-homed the stream")
	}
	<-drainDone

	// The stream is still live on the survivor.
	if err := s.Send(frame); err != nil {
		t.Fatal(err)
	}
	if v := recv(); !equalF64(ref.Data, v.Data) {
		t.Error("post-rehome compound differs from the reference")
	}
}
