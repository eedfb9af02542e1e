package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/url"
	"sync"
	"testing"
	"time"

	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// serveStream starts a stream listener over srv for the test's lifetime
// and returns its address.
func serveStream(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeStream(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// dialStream starts a stream listener over srv and returns a connected
// client conn.
func dialStream(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", serveStream(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// helloStream dials a stream listener over srv and says hello with query,
// failing the test if the server refuses it.
func helloStream(t *testing.T, srv *Server, query string) net.Conn {
	t.Helper()
	conn := dialStream(t, srv)
	if err := wire.WriteHello(conn, query); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	return conn
}

// mustStreamVolume pushes one compound over a fresh stream connection to
// addr and returns the decoded volume; the connection closes at the
// compound boundary.
func mustStreamVolume(t *testing.T, addr, query string, body []byte) []float64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHello(conn, query); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	vol, err := wire.ReadVolume(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return vol.Data
}

// TestStreamDropsStalledUpload: a compound's queue slot is reserved when its
// first header parses, so an upload that then stops must not hold it. The
// frame deadline is shortened on this instance so the test need not wait
// the production thirty seconds. A slow but live upload — a pause of 0.4
// deadlines inside each transmit frame of a three-transmit compound, more
// than one deadline in total but 0.6 s clear of it per frame on a loaded
// host — is answered; one that stalls mid-payload is closed as client-gone
// and its slot released.
func TestStreamDropsStalledUpload(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv := ts.Config.Handler.(*Server)
	if srv.streamFrameTimeout != StreamFrameTimeout || StreamFrameTimeout <= 0 {
		t.Fatalf("NewServer frame deadline: %v", srv.streamFrameTimeout)
	}
	const frameBound = time.Second
	srv.streamFrameTimeout = frameBound

	spec := tinySpec()
	bufs := tinyFrame(t, spec)
	conn := helloStream(t, srv, tinyQuery(url.Values{"transmits": {"3"}, "arch": {"tablesteer"}, "resp": {"f32"}}))
	body := encodeWire(t, wire.EncodingI16, [][]rf.EchoBuffer{bufs, bufs, bufs}, 0)
	frame := len(body) / 3 // three equal transmit frames
	if len(body) != 3*frame || frame%2 != 0 {
		t.Fatalf("compound of %d bytes does not cut into six halves", len(body))
	}
	for cut := frame / 2; cut <= len(body); cut += frame / 2 {
		if _, err := conn.Write(body[cut-frame/2 : cut]); err != nil {
			t.Fatal(err)
		}
		if cut%frame != 0 {
			time.Sleep(frameBound * 4 / 10) // mid-frame: the server is waiting on this payload
		}
	}
	conn.SetReadDeadline(time.Now().Add(20 * frameBound))
	if _, err := wire.ReadVolume(conn, 0); err != nil {
		t.Fatalf("slow but live compound: %v", err)
	}

	// Half of the first frame, then silence: the header has parsed, so
	// the slot is held — until the deadline.
	if _, err := conn.Write(body[:frame/2]); err != nil {
		t.Fatal(err)
	}
	held := time.Now()
	for sched.QueuedFrames() != 1 {
		if time.Since(held) > 20*frameBound {
			t.Fatal("the stalled compound never reserved its slot: the test proves nothing")
		}
		time.Sleep(time.Millisecond)
	}
	conn.SetReadDeadline(time.Now().Add(20 * frameBound))
	if _, err := io.Copy(io.Discard, conn); err != nil { // returns nil at the server's close
		t.Fatalf("stalled stream still open after %v: %v", time.Since(held), err)
	}
	if waited := time.Since(held); waited < frameBound/2 {
		t.Fatalf("stream closed after %v, before the %v frame bound", waited, frameBound)
	}
	for sched.QueuedFrames() != 0 { // the close races the server's own bookkeeping by microseconds
		if time.Since(held) > 20*frameBound {
			t.Fatalf("queue slots still held after the close: %d", sched.QueuedFrames())
		}
		time.Sleep(time.Millisecond)
	}
	ws := sched.Stats().Wire
	for ws.StreamClosesClientGone != 1 && time.Since(held) < 20*frameBound {
		time.Sleep(time.Millisecond)
		ws = sched.Stats().Wire
	}
	if ws.StreamClosesClientGone != 1 || ws.StreamClosesDesync != 0 {
		t.Errorf("close causes: client-gone %d, desync %d; want 1, 0", ws.StreamClosesClientGone, ws.StreamClosesDesync)
	}
}

// TestStreamCapRefusesFlood: connections that say hello and then sit idle
// hold stream slots, so a flood of them is capped. With the cap lowered on
// this instance, every hello up to the cap is accepted, the next one is
// answered StatusOverloaded and closed (and counted), and closing one
// accepted connection frees a slot a new hello can take.
func TestStreamCapRefusesFlood(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv := ts.Config.Handler.(*Server)
	if srv.maxStreams != MaxStreams || MaxStreams <= 0 {
		t.Fatalf("NewServer stream cap: %d", srv.maxStreams)
	}
	const limit = 3
	srv.maxStreams = limit
	addr := serveStream(t, srv)
	hello := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := wire.WriteHello(conn, tinyQuery(nil)); err != nil {
			t.Fatal(err)
		}
		return conn, wire.ReadHelloReply(conn)
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for start := time.Now(); !ok(); time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	open := make([]net.Conn, limit)
	for i := range open {
		conn, err := hello()
		if err != nil {
			t.Fatalf("hello %d of %d refused: %v", i+1, limit, err)
		}
		open[i] = conn
	}
	over, err := hello()
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusOverloaded {
		t.Fatalf("hello %d past a cap of %d: %v, want StatusOverloaded", limit+1, limit, err)
	}
	if n, err := over.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("refused connection still open: read %d, %v", n, err)
	}
	waitFor("the refusal to be counted", func() bool { return sched.Stats().Wire.StreamClosesOverloaded == 1 })
	// A stream is counted just after its hello is acknowledged, so the
	// client can read the acknowledgement first.
	waitFor("the accepted streams to be counted", func() bool { return sched.Stats().Wire.Streams == limit })

	open[0].Close()
	waitFor("the closed stream's slot to free", func() bool { return srv.openStreams.Load() == limit-1 })
	if _, err := hello(); err != nil {
		t.Fatalf("hello into a freed slot refused: %v", err)
	}
	if ws := sched.Stats().Wire; ws.StreamClosesOverloaded != 1 || ws.StreamClosesClean != 1 {
		t.Errorf("close counters overloaded=%d clean=%d, want 1 and 1", ws.StreamClosesOverloaded, ws.StreamClosesClean)
	}
}
