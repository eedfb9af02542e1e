// The refusal table: DESIGN §2.2's failure table as code, one row per
// synchronous failure. The POST column gives the status, reply headers and
// message; the stream column a refused hello, or the compound's in-band
// status and how the stream closes; both pin whether the request reached
// the scheduler (Submits). Each row names the Test function running its
// POST column; streamTest picks the one running its stream column.
package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/wire"
)

// servedRefusal is one row of the refusal table.
type servedRefusal struct {
	name    string
	test    string      // the Test function running the POST column
	q       url.Values  // over tinyQuery's
	hdr     http.Header // POST only
	path    string      // method and path, when not a POST to /v1/beamform
	body    []byte      // nil is one good f64 frame
	maxBody int64
	state   string // the scheduler's: "full" (the lane's one slot held), "draining", "expired" (its clock races ahead), "write fault" (every stream reply write fails) or "never reads" (the stream client reads no reply)
	status  int
	headers []string // reply headers the POST carries
	msg     string   // what both refusals say
	hello   bool     // the stream refuses the hello
	inband  uint8    // else the in-band status of the compound's reply (0: none)
	closed  string   // and how the stream closes: "clean", "client gone", "desync", "drain" or "internal"
	reached bool
}

func servedRefusals(t *testing.T) []servedRefusal {
	e := tinySpec().Elements()
	// frame is one wire frame of elements elements, win samples each,
	// transmit tx of n.
	frame := func(enc wire.Encoding, elements, win, tx, n int) []byte {
		samples := make([]float64, elements*win)
		for i := range samples {
			samples[i] = math.Sin(float64(i))
		}
		f, err := wire.NewFrame(enc, elements, win, tx, n, samples)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, f, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	param := func(k, v string) url.Values { return url.Values{k: {v}} }
	good := frame(wire.EncodingF64, e, 64, 0, 1)
	raw := good[wire.HeaderBytes+4:] // its f64 samples, past the header and the one chunk's length
	f64, i16, two := wire.EncodingF64, wire.EncodingI16, param("transmits", "2")
	const bad, early = "TestServerRejectsBadRequests", "TestServerWireEarlyValidation"
	const removed, busy = "TestServerRejectsRemovedSurface", "TestServerOverloadMapsTo503"
	rows := []servedRefusal{
		{name: "malformed query", test: bad, q: param("spec", "nope"), status: 400, msg: "unknown spec", hello: true},
		{name: "empty body", test: bad, body: []byte{}, status: 400, msg: "EOF", closed: "clean"},
		{name: "truncated header", test: bad, body: good[:12], status: 400, msg: "EOF", closed: "client gone"},
		{name: "truncated payload", test: bad, body: good[:wire.HeaderBytes+100], status: 400, msg: "EOF",
			closed: "client gone", reached: true},
		{name: "wrong elements", test: early, body: frame(f64, 3, 64, 0, 1), status: 400, msg: "3 elements",
			inband: wire.StatusError, closed: "desync"},
		{name: "wrong transmit count", test: early, body: frame(f64, e, 64, 0, 2), status: 400, msg: "declares 2 transmits",
			inband: wire.StatusError, closed: "desync"},
		{name: "bad magic", test: early, body: append([]byte("NOPE"), good[4:]...), status: 400, msg: "magic",
			inband: wire.StatusError, closed: "desync"},
		{name: "out-of-order transmit", test: early, q: two, body: slices.Concat(frame(f64, e, 64, 0, 2), frame(f64, e, 64, 0, 2)),
			status: 400, msg: "transmit 0 arrived where 1", inband: wire.StatusError, closed: "desync", reached: true},
		{name: "window change inside a compound", test: early, q: two,
			body:   slices.Concat(frame(f64, e, 64, 0, 2), frame(f64, e, 57, 1, 2)),
			status: 400, msg: "window 57 differs", inband: wire.StatusError, closed: "desync", reached: true},
		{name: "mixed encoding after an i16 first frame", test: early, q: url.Values{"transmits": {"2"}, "precision": {"i16"}},
			body:   slices.Concat(frame(i16, e, 64, 0, 2), frame(f64, e, 64, 1, 2)),
			status: 400, msg: "needs an i16 frame", inband: wire.StatusError, closed: "desync", reached: true},
		{name: "body cap", test: "TestServerOversizedBodyIs413", maxBody: 1024, status: 413, msg: "exceeds 1024",
			inband: wire.StatusError, closed: "desync"},
		{name: "precision=float32", test: removed, q: param("precision", "float32"), status: 400, msg: "float64|i16", hello: true},
		{name: "precision=wide", test: removed, q: param("precision", "wide"), status: 400, msg: "float64|i16", hello: true},
		{name: "precision=narrow", test: removed, q: param("precision", "narrow"), status: 400, msg: "float64|i16", hello: true},
		{name: "fmt=raw", test: removed, q: param("fmt", "raw"), body: raw, status: 400, msg: "i16|f32|f64", hello: true},
		{name: "raw f64 body", test: removed, body: raw, status: 400, msg: "magic", inband: wire.StatusError,
			closed: "desync"},
		{name: "unversioned beamform", test: removed, path: "POST /beamform?" + tinyQuery(nil), status: 404},
		{name: "unversioned healthz", test: removed, path: "GET /healthz", status: 404},
		{name: "unversioned stats", test: removed, path: "GET /stats", status: 404},
		{name: "lane full", test: busy, state: "full", status: 503, headers: []string{"Retry-After"}, msg: "overloaded",
			inband: wire.StatusOverloaded, closed: "clean", reached: true},
		{name: "draining", test: busy, state: "draining", status: 503, headers: []string{"Retry-After", "X-Ultrabeam-Draining"},
			msg: "draining", inband: wire.StatusGoAway, closed: "drain"},
		{name: "expired in queue", test: "TestServerExpiredDeadlineIs504", q: param("deadline_ms", "25"), state: "expired",
			status: 504, msg: "expired", inband: wire.StatusError, closed: "clean", reached: true},
		{name: "reply write fails", state: "write fault", closed: "internal", reached: true},
		{name: "client never reads", state: "never reads", closed: "client gone", reached: true},
		{name: "prewarm of a bad plan", test: "TestPrewarmRefusals", path: "POST /v1/prewarm",
			body: []byte(`{"query":"spec=nosuch"}`), status: 400, msg: "unknown spec"},
		{name: "prewarm while draining", test: "TestPrewarmRefusals", path: "POST /v1/prewarm", state: "draining",
			body: []byte(`{"query":"` + tinyQuery(nil) + `"}`), status: 503, headers: []string{"Retry-After"}, msg: "draining"},
		{name: "bad deadline", test: "TestServerDeadlineParsing", q: param("deadline_ms", "soon"), status: 400,
			msg: "deadline_ms", hello: true},
		{name: "overflowing deadline", test: "TestDeadlineOverflowRefused", q: param("deadline_ms", "9223372036855"),
			status: 400, msg: "deadline_ms", hello: true},
		{name: "overflowing deadline header", test: "TestDeadlineOverflowRefused",
			hdr: http.Header{"X-Ultrabeam-Deadline-Ms": {"18446744073710"}}, status: 400, msg: "deadline_ms"},
	}
	for i := range rows {
		if rows[i].body == nil {
			rows[i].body = good
		}
	}
	return rows
}

// streamTest is the test running r's stream column: a TestStreamErrors
// subtest by how the stream refuses it, or TestStreamStatusMapping for a
// scheduler state; "" when the failure has no stream form.
func (r servedRefusal) streamTest() string {
	switch {
	case r.path != "": // an HTTP route of its own
		return ""
	case r.hello && r.test == "TestServerRejectsRemovedSurface":
		return "TestStreamErrors/removed_precision_refused"
	case r.hello:
		return "TestStreamErrors/bad_hello"
	case r.state != "":
		return "TestStreamStatusMapping"
	case r.closed != "":
		return "TestStreamErrors/geometry_mismatch_in_band"
	}
	return ""
}

// refuseRows runs, as subtests, the columns of the refusal table t holds.
func refuseRows(t *testing.T) {
	ran := false
	for _, r := range servedRefusals(t) {
		if r.test == t.Name() {
			ran = true
			t.Run(r.name, r.post)
		}
		if r.streamTest() == t.Name() {
			ran = true
			t.Run(r.name, r.streamed)
		}
	}
	if !ran {
		t.Fatal("no refusal row names this test")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	// The query grammar's own refusals, each a 400 on either transport as
	// the "malformed query" row shows.
	for _, query := range []string{"arch=nope", "out=nope", "out=scanline&theta=999", "budget=lots", "elemx=x",
		"lane=express", "fmt=f16", "resp=i16", "transmits=0"} {
		v, _ := url.ParseQuery(query)
		if _, err := ParseOptions(v, nil); err == nil {
			t.Errorf("%s accepted", query)
		}
	}
	refuseRows(t)
}

func TestServerWireEarlyValidation(t *testing.T)   { refuseRows(t) }
func TestServerRejectsRemovedSurface(t *testing.T) { refuseRows(t) }
func TestServerOversizedBodyIs413(t *testing.T)    { refuseRows(t) }
func TestServerOverloadMapsTo503(t *testing.T)     { refuseRows(t) }
func TestServerExpiredDeadlineIs504(t *testing.T)  { refuseRows(t) }
func TestStreamStatusMapping(t *testing.T)         { refuseRows(t) }
func TestPrewarmRefusals(t *testing.T)             { refuseRows(t) }

func TestStreamErrors(t *testing.T) {
	for _, sub := range []string{"bad_hello", "removed_precision_refused", "geometry_mismatch_in_band"} {
		t.Run(sub, refuseRows)
	}
}

// serve is a fresh scheduler and server in r's state. At the column's end
// it pins whether the request reached the scheduler and expired in queue.
func (r servedRefusal) serve(t *testing.T) (*Scheduler, *Server) {
	cfg := SchedulerConfig{}
	switch r.state {
	case "full":
		cfg.MaxQueue = 1
	case "expired":
		var mu sync.Mutex
		clock := time.Unix(1000, 0)
		cfg.Now = func() time.Time { // a minute passes on every read: any deadline lapses in queue
			mu.Lock()
			defer mu.Unlock()
			clock = clock.Add(time.Minute)
			return clock
		}
	}
	sched := NewScheduler(cfg)
	t.Cleanup(sched.Close)
	srv, err := NewServer(ServerConfig{Scheduler: sched, MaxBodyBytes: r.maxBody})
	if err != nil {
		t.Fatal(err)
	}
	switch r.state {
	case "full":
		req := tinyRequest() // the session tinyQuery(nil) asks for
		req.Spec = servedSpec()
		pend, err := sched.Begin(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pend.Abort)
	case "draining":
		if err := sched.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	case "write fault":
		if err := faultpoint.Activate("serve.stream.write=1"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(faultpoint.Deactivate)
	}
	before := sched.Stats().Submits
	t.Cleanup(func() {
		// A client that never reads has its stream fill with compounds
		// before the server stops taking them.
		if got := sched.Stats().Submits - before; (got > 0) != r.reached || got > 1 && r.state != "never reads" {
			t.Errorf("%d submits, want reached=%v", got, r.reached)
		}
		if got := sched.Stats().Expired; got != map[bool]int64{true: 1}[r.state == "expired"] {
			t.Errorf("%d frames expired in queue", got)
		}
	})
	return sched, srv
}

// post is the row's POST column.
func (r servedRefusal) post(t *testing.T) {
	_, srv := r.serve(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	method, path, _ := strings.Cut(r.path, " ")
	if r.path == "" {
		method, path = http.MethodPost, "/v1/beamform?"+tinyQuery(r.q)
	}
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	maps.Copy(req.Header, r.hdr)
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != r.status || !strings.Contains(string(body), r.msg) {
		t.Errorf("POST: %d %q, want %d naming %q", resp.StatusCode, body, r.status, r.msg)
	}
	for _, h := range r.headers {
		if resp.Header.Get(h) == "" {
			t.Errorf("the %d carries no %s", resp.StatusCode, h)
		}
	}
}

// streamed is the row's stream column: the hello, then the body as one
// upload, half-closed, and the one reply it gets, if any. After a failed
// reply write the client keeps its half open, and the server must close
// the stream within a few idle polls rather than leave it to the client's
// deadline.
func (r servedRefusal) streamed(t *testing.T) {
	if r.state == "never reads" {
		r.neverReads(t)
		return
	}
	sched, srv := r.serve(t)
	conn := dialStream(t, srv)
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if err := wire.WriteHello(conn, tinyQuery(r.q)); err != nil {
		t.Fatal(err)
	}
	var re *wire.RemoteError
	if err := wire.ReadHelloReply(conn); r.hello {
		if !errors.As(err, &re) || !strings.Contains(re.Msg, r.msg) {
			t.Errorf("hello: %v, want a refusal naming %q", err, r.msg)
		}
		return
	} else if err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	if _, err := conn.Write(r.body); err != nil {
		t.Fatal(err)
	}
	if r.state != "write fault" {
		conn.(interface{ CloseWrite() error }).CloseWrite()
	}
	start := time.Now()
	_, err := wire.ReadVolume(conn, 0)
	if waited := time.Since(start); r.state == "write fault" && waited > 4*streamPollInterval {
		t.Errorf("the stream closed %v after the upload, want within %v", waited, 4*streamPollInterval)
	}
	if r.inband == 0 {
		if err == nil || errors.As(err, &re) {
			t.Errorf("reply %v, want none", err)
		}
	} else if !errors.As(err, &re) || re.Status != r.inband || !strings.Contains(re.Msg, r.msg) ||
		wire.IsGoAway(err) != (r.inband == wire.StatusGoAway) {
		t.Errorf("reply %v, want in-band status %d naming %q", err, r.inband, r.msg)
	}
	waitStreamCloses(t, sched, func(ws WireStats) bool {
		return map[string]int64{"clean": ws.StreamClosesClean, "client gone": ws.StreamClosesClientGone,
			"desync": ws.StreamClosesDesync, "drain": ws.StreamClosesDrain, "internal": ws.StreamClosesInternal}[r.closed] == 1
	})
}

// neverReads is the stream column of the "client never reads" row: the
// client uploads the body as compound after compound and reads nothing,
// with the reply direction's socket buffers at their smallest, until the
// server stops taking them — a reply write blocks, and the pipeline behind
// it fills. The reply's write deadline (the frame deadline, shortened here)
// must close the stream as client-gone, and ServeStream must return within
// that deadline of cancel, however long the client holds its socket open.
func (r servedRefusal) neverReads(t *testing.T) {
	const frameBound = 300 * time.Millisecond
	sched, srv := r.serve(t)
	srv.streamFrameTimeout = frameBound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeStream(ctx, smallBuffers{ln})
	}()
	defer func() {
		cancel()
		ln.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Error("ServeStream did not return after cancel")
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // only after the ServeStream check
	conn.(*net.TCPConn).SetReadBuffer(1)
	if err := wire.WriteHello(conn, tinyQuery(r.q)); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	for n := 0; ; n++ {
		if n == 10000 {
			t.Fatal("the server took 10000 compounds from a client that reads nothing")
		}
		conn.SetWriteDeadline(time.Now().Add(4 * frameBound))
		if _, err := conn.Write(r.body); err != nil {
			break // the server stopped reading, or closed the stream
		}
	}
	waitStreamCloses(t, sched, func(ws WireStats) bool { return ws.StreamClosesClientGone == 1 })
}

// smallBuffers sets the send buffer of every connection it accepts to the
// smallest the kernel allows, so that a few replies fill it. The upload
// direction keeps its buffers: a window that small stalls an upload past
// the frame deadline.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(1)
	}
	return c, err
}
