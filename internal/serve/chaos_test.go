package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// chaosSchedule arms every injection point in the serving stack at rates
// chosen so most traffic survives each fault site but every site fires
// over the soak. Deterministic: a failure reproduces from the seed. Rates
// are per CALL at the point, so per-chunk-read sites (wire.decode runs
// ~300 times per compound here) get rates two orders below per-compound
// sites.
const chaosSchedule = "seed=1813;" +
	"serve.session.build=0.5;" +
	"serve.dispatch=0.1;" +
	"beamform.batch=0.05;" +
	"wire.decode=0.002;" +
	"serve.stream.read=0.1;" +
	"serve.stream.write=0.2;" +
	"delaycache.fill=0.5:sleep=1ms"

// TestChaosSoak is the fault-injection soak over all three transports
// (wire-f64 HTTP on the float64 kernel, wire-i16 HTTP and the cine stream
// on the i16 kernel's ADC-native plane path), run under -race in CI. With
// the full chaos schedule armed, clients hammer a shared scheduler while
// sessions fail to build, batches fail to dispatch, decodes abort and
// stream sockets die. The contract under fire:
//
//   - no request hangs (every client loop completes within its deadline),
//   - every response acknowledged clean (HTTP 200 / stream status 0) is
//     bit-identical to the fault-free golden for its transport,
//   - after Deactivate the server recovers unaided (a clean request per
//     transport succeeds — including a session rebuild after build faults
//     deleted the geometry),
//   - nothing leaks: goroutines settle back to baseline, no core slot or
//     queued frame is stranded, and a graceful drain completes.
func TestChaosSoak(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxQueue: 32})
	srv := ts.Config.Handler.(*Server)
	spec := servedSpec()
	tx := [][]rf.EchoBuffer{tinyFrame(t, spec)}

	f64Body := encodeWire(t, wire.EncodingF64, tx, 8192)
	f64URL := ts.URL + "/v1/beamform?" + tinyQuery(nil)
	i16Body := encodeWire(t, wire.EncodingI16, tx, 8192)
	i16URL := ts.URL + "/v1/beamform?" + tinyQuery(url.Values{"precision": {"i16"}})
	streamQuery := tinyQuery(url.Values{"precision": {"i16"}, "resp": {"f32"}})
	// A geometry nobody warms before the chaos starts: its session build
	// and delay-store fills happen under fire (build faults delete the
	// geometry, so later frames rebuild it from cold again and again).
	variantURL := ts.URL + "/v1/beamform?" + tinyQuery(url.Values{"ftheta": {"11"}})

	streamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	streamCtx, streamCancel := context.WithCancel(context.Background())
	var streamWG sync.WaitGroup
	streamWG.Add(1)
	go func() {
		defer streamWG.Done()
		srv.ServeStream(streamCtx, streamLn)
	}()
	defer func() {
		streamCancel()
		streamLn.Close()
		streamWG.Wait()
	}()

	// Fault-free goldens, one per transport (they differ legitimately:
	// precision and response encoding are transport-specific here).
	goldenF64 := mustPost(t, f64URL, wire.ContentType, f64Body)
	goldenI16 := mustPost(t, i16URL, wire.ContentType, i16Body)
	goldenStream := mustStreamVolume(t, streamLn.Addr().String(), streamQuery, i16Body)

	// Baseline for the leak check: sessions are warm, streams quiesced.
	http.DefaultClient.CloseIdleConnections()
	baseline := settledGoroutines()

	if err := faultpoint.Activate(chaosSchedule); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Deactivate()

	const (
		clientsPerTransport = 3
		iters               = 12
	)
	var wg sync.WaitGroup
	var cleanF64, cleanI16, cleanStream, cleanVariant, faulted counter
	// The cold geometry has no pre-chaos golden (warming it would defeat
	// the point): its clean responses must instead all agree with each
	// other, and with the fault-free answer computed after recovery.
	var variantMu sync.Mutex
	var variantRef []byte
	for c := 0; c < clientsPerTransport; c++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				chaosPost(t, f64URL, wire.ContentType, f64Body, goldenF64, "f64", &cleanF64, &faulted)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				chaosPost(t, i16URL, wire.ContentType, i16Body, goldenI16, "i16", &cleanI16, &faulted)
			}
		}()
		go func() {
			defer wg.Done()
			chaosStream(t, streamLn.Addr().String(), streamQuery, i16Body, goldenStream, iters, &cleanStream, &faulted)
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if raw := chaosPost(t, variantURL, wire.ContentType, f64Body, nil, "cold-geometry", &cleanVariant, &faulted); raw != nil {
					variantMu.Lock()
					if variantRef == nil {
						variantRef = raw
					} else if !bytes.Equal(raw, variantRef) {
						t.Error("cold-geometry responses under chaos disagree with each other")
					}
					variantMu.Unlock()
				}
			}
		}()
	}
	soakDone := make(chan struct{})
	go func() { wg.Wait(); close(soakDone) }()
	select {
	case <-soakDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos soak hung: a client loop never completed")
	}
	t.Logf("soak: %d/%d/%d/%d clean f64/i16/stream/cold-geometry responses, %d faulted",
		cleanF64.n(), cleanI16.n(), cleanStream.n(), cleanVariant.n(), faulted.n())
	if cleanF64.n() == 0 || cleanI16.n() == 0 || cleanStream.n() == 0 {
		t.Error("a transport produced no clean responses under chaos — rates too hot to prove bit-identity")
	}
	if faulted.n() == 0 {
		t.Error("no injected faults observed — the schedule never bit")
	}
	for _, ps := range faultpoint.Snapshot() {
		t.Logf("faultpoint %s: armed=%v calls=%d fired=%d", ps.Name, ps.Armed, ps.Calls, ps.Fired)
	}

	// Recovery: with faults cleared the very next request per transport
	// must succeed — including rebuilding any geometry a build fault tore
	// down — and still match the golden bit for bit.
	faultpoint.Deactivate()
	if got := mustPost(t, f64URL, wire.ContentType, f64Body); !bytes.Equal(got, goldenF64) {
		t.Error("post-chaos f64 response differs from golden")
	}
	if got := mustPost(t, i16URL, wire.ContentType, i16Body); !bytes.Equal(got, goldenI16) {
		t.Error("post-chaos i16 response differs from golden")
	}
	if got := mustStreamVolume(t, streamLn.Addr().String(), streamQuery, i16Body); !floatsEqual(got, goldenStream) {
		t.Error("post-chaos stream volume differs from golden")
	}
	variantClean := mustPost(t, variantURL, wire.ContentType, f64Body)
	if variantRef != nil && !bytes.Equal(variantClean, variantRef) {
		t.Error("cold-geometry responses under chaos differ from the fault-free answer")
	}
	for _, ps := range faultpoint.Snapshot() {
		if (ps.Name == "serve.session.build" || ps.Name == "delaycache.fill") && ps.Calls == 0 {
			t.Errorf("%s was never reached — the cold geometry did not exercise it", ps.Name)
		}
	}

	// Drain: a server that just survived a fault storm must still shut
	// down gracefully and leave nothing behind.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("post-chaos drain: %v", err)
	}
	if q := sched.QueuedFrames(); q != 0 {
		t.Errorf("%d frames stranded in queue after drain", q)
	}
	if held := len(sched.slots); held != 0 {
		t.Errorf("%d core slots leaked", held)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := settledGoroutines(); g <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// counter is a tiny race-safe tally.
type counter struct {
	mu sync.Mutex
	v  int
}

func (c *counter) add()   { c.mu.Lock(); c.v++; c.mu.Unlock() }
func (c *counter) n() int { c.mu.Lock(); defer c.mu.Unlock(); return c.v }

// settledGoroutines samples the goroutine count until two consecutive
// reads agree, damping scheduler noise.
func settledGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// mustPost POSTs fault-free and returns the 200 body.
func mustPost(t *testing.T, url, ct string, body []byte) []byte {
	t.Helper()
	st, raw, _ := postBytes(t, url, ct, body)
	if st != http.StatusOK {
		t.Fatalf("fault-free POST: %d: %s", st, raw)
	}
	return raw
}

// chaosPost is one tolerant HTTP round trip under chaos: transport errors
// and 4xx/5xx are expected casualties; a 200 must match the golden, when
// there is one, and its body is returned.
func chaosPost(t *testing.T, url, ct string, body, golden []byte, transport string, clean, faulted *counter) []byte {
	t.Helper()
	resp, err := http.Post(url, ct, bytes.NewReader(body))
	if err != nil {
		faulted.add()
		return nil
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		faulted.add()
		return nil
	}
	if golden != nil && !bytes.Equal(raw, golden) {
		t.Errorf("%s: a 200 response under chaos differs from the fault-free golden", transport)
		return nil
	}
	clean.add()
	return raw
}

// chaosStream is one tolerant cine client: it pushes compounds one at a
// time with a read deadline on every reply, reconnecting on GOAWAY, dead
// sockets or reply timeouts (the server's writer may have been killed by
// an injected write fault). In-band errors are answered frames; volumes
// must match the golden.
func chaosStream(t *testing.T, addr, query string, body []byte, golden []float64, iters int, clean, faulted *counter) {
	t.Helper()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	connect := func() bool {
		if conn != nil {
			conn.Close()
		}
		var err error
		if conn, err = net.Dial("tcp", addr); err != nil {
			return false
		}
		if err := wire.WriteHello(conn, query); err != nil {
			return false
		}
		return wire.ReadHelloReply(conn) == nil
	}
	for i := 0; i < iters; i++ {
		if conn == nil && !connect() {
			faulted.add()
			conn = nil
			continue
		}
		if _, err := conn.Write(body); err != nil {
			faulted.add()
			conn = nil
			continue
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		vol, err := wire.ReadVolume(conn, 0)
		switch {
		case err == nil:
			if !floatsEqual(vol.Data, golden) {
				t.Error("stream: a clean volume under chaos differs from the fault-free golden")
				return
			}
			clean.add()
		case wire.IsGoAway(err):
			faulted.add()
			conn = nil
		default:
			var re *wire.RemoteError
			faulted.add()
			if !errors.As(err, &re) {
				conn = nil // socket died or timed out: reconnect
			}
		}
	}
}

func floatsEqual(a, b []float64) bool {
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
