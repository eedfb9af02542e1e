package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"ultrabeam/internal/core"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// dialStream starts a stream listener over srv and returns a connected
// client conn.
func dialStream(t *testing.T, srv *Server) net.Conn {
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
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestStreamCine drives the persistent transport end to end: hello, a
// burst of alternating i16 and f32 compounds pipelined ahead of the
// replies on a float64 session, volumes back in order matching the HTTP
// f64 path above 60 dB, and stream counters moving.
func TestStreamCine(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}
	query := tinyQuery(url.Values{"resp": {"f32"}})

	// HTTP f64 reference volume on the same scheduler.
	st, refRaw, _ := postBytes(t, ts.URL+"/v1/beamform?"+tinyQuery(nil),
		wire.ContentType, encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("reference POST: %d: %s", st, refRaw)
	}
	ref := decodeFloats(t, refRaw)

	conn := dialStream(t, srv)
	if err := wire.WriteHello(conn, query); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatalf("hello refused: %v", err)
	}

	// Push a pipelined burst, then read the replies in order.
	const n = 6
	bodies := [][]byte{encodeWire(t, wire.EncodingI16, tx, 8192), encodeWire(t, wire.EncodingF32, tx, 8192)}
	for i := 0; i < n; i++ {
		if _, err := conn.Write(bodies[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		vol, err := wire.ReadVolume(conn, 0)
		if err != nil {
			t.Fatalf("volume %d: %v", i, err)
		}
		if vol.Encoding != wire.EncodingF32 {
			t.Fatalf("volume %d encoding %s, want f32", i, vol.Encoding)
		}
		if len(vol.Data) != len(ref) {
			t.Fatalf("volume %d has %d points, want %d", i, len(vol.Data), len(ref))
		}
		if db := psnr(ref, vol.Data); db < 60 {
			t.Errorf("volume %d PSNR = %.1f dB, want ≥ 60", i, db)
		}
	}

	ws := sched.Stats().Wire
	if ws.Streams != 1 {
		t.Errorf("streams = %d, want 1", ws.Streams)
	}
	if ws.FramesI16 != n/2 || ws.FramesF32 != n/2 {
		t.Errorf("i16/f32 frames = %d/%d, want %d each", ws.FramesI16, ws.FramesF32, n/2)
	}
	if ws.PlaneDecodesI16 != 0 {
		t.Errorf("plane decodes = %d on a float64 session, want 0", ws.PlaneDecodesI16)
	}
}

// TestStreamScanline: the out=scanline selection applies per connection.
func TestStreamScanline(t *testing.T) {
	_, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)

	conn := dialStream(t, srv)
	if err := wire.WriteHello(conn, tinyQuery(url.Values{"out": {"scanline"}})); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs}, 0)); err != nil {
		t.Fatal(err)
	}
	vol, err := wire.ReadVolume(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vol.Theta != 1 || vol.Phi != 1 || vol.Depth != spec.FocalDepth {
		t.Fatalf("scanline reply shape %d×%d×%d, want 1×1×%d", vol.Theta, vol.Phi, vol.Depth, spec.FocalDepth)
	}
}

// TestStreamErrors: a bad hello — including one naming a removed
// precision — is refused with a message; a frame whose geometry mismatches
// the connection comes back as an in-band error reply rather than a
// dropped connection mid-write.
func TestStreamErrors(t *testing.T) {
	_, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad_hello", func(t *testing.T) {
		conn := dialStream(t, srv)
		if err := wire.WriteHello(conn, "spec=nope"); err != nil {
			t.Fatal(err)
		}
		var re *wire.RemoteError
		if err := wire.ReadHelloReply(conn); !errors.As(err, &re) {
			t.Fatalf("bad hello: %v, want RemoteError", err)
		}
	})

	t.Run("removed_precision_refused", func(t *testing.T) {
		conn := dialStream(t, srv)
		if err := wire.WriteHello(conn, tinyQuery(url.Values{"precision": {"float32"}})); err != nil {
			t.Fatal(err)
		}
		var re *wire.RemoteError
		if err := wire.ReadHelloReply(conn); !errors.As(err, &re) || !bytes.Contains([]byte(re.Msg), []byte("float64|i16")) {
			t.Fatalf("precision=float32 hello: %v, want a refusal naming float64|i16", err)
		}
	})

	t.Run("geometry_mismatch_in_band", func(t *testing.T) {
		spec := tinySpec()
		spec.DepthLambda = core.ReducedSpec().DepthLambda
		bufs := tinyFrame(t, spec)
		conn := dialStream(t, srv)
		if err := wire.WriteHello(conn, tinyQuery(nil)); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadHelloReply(conn); err != nil {
			t.Fatal(err)
		}
		// One good compound, then a frame claiming 3 elements.
		good := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs}, 0)
		bad := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs[:3]}, 0)
		if _, err := conn.Write(append(append([]byte{}, good...), bad...)); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadVolume(conn, 0); err != nil {
			t.Fatalf("good compound: %v", err)
		}
		var re *wire.RemoteError
		if _, err := wire.ReadVolume(conn, 0); !errors.As(err, &re) {
			t.Fatalf("mismatched frame: %v, want RemoteError", err)
		}
		if !bytes.Contains([]byte(re.Msg), []byte("elements")) {
			t.Errorf("error message %q does not name the mismatch", re.Msg)
		}
		// The server stops reading after desync; the conn closes cleanly.
		if _, err := wire.ReadVolume(conn, 0); err == nil {
			t.Error("stream kept serving after a desynchronised frame")
		}
	})
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
	_, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if srv.streamFrameTimeout != StreamFrameTimeout || StreamFrameTimeout <= 0 {
		t.Fatalf("NewServer frame deadline: %v", srv.streamFrameTimeout)
	}
	const frameBound = time.Second
	srv.streamFrameTimeout = frameBound

	spec := tinySpec()
	bufs := tinyFrame(t, spec)
	conn := dialStream(t, srv)
	if err := wire.WriteHello(conn, tinyQuery(url.Values{"transmits": {"3"}, "arch": {"tablesteer"}, "resp": {"f32"}})); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
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
	_, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	if srv.maxStreams != MaxStreams || MaxStreams <= 0 {
		t.Fatalf("NewServer stream cap: %d", srv.maxStreams)
	}
	const limit = 3
	srv.maxStreams = limit
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
	hello := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
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

// TestReplyMatchesStreamPayload: the HTTP reply body and the stream
// volume's payload are the same bytes (wire.PutVolumeSamples) for the same
// frame, in both reply encodings, and the stream header names the
// encoding.
func TestReplyMatchesStreamPayload(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	body := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{tinyFrame(t, spec)}, 0)
	for _, enc := range []wire.Encoding{wire.EncodingF64, wire.EncodingF32} {
		query := tinyQuery(url.Values{"resp": {enc.String()}})
		st, reply, _ := postBytes(t, ts.URL+"/v1/beamform?"+query, wire.ContentType, body)
		if st != http.StatusOK {
			t.Fatalf("%s POST: %d: %s", enc, st, reply)
		}
		conn := dialStream(t, srv)
		if err := wire.WriteHello(conn, query); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadHelloReply(conn); err != nil {
			t.Fatalf("hello refused: %v", err)
		}
		if _, err := conn.Write(body); err != nil {
			t.Fatal(err)
		}
		const header = 28 // magic, status, encoding, reserved, θ φ depth, payload length
		raw := make([]byte, header+len(reply))
		if _, err := io.ReadFull(conn, raw); err != nil {
			t.Fatalf("%s stream volume: %v", enc, err)
		}
		if wire.Encoding(raw[5]) != enc || raw[4] != 0 {
			t.Fatalf("%s stream volume: status %d encoding %d", enc, raw[4], raw[5])
		}
		if !bytes.Equal(raw[header:], reply) {
			t.Fatalf("%s: the HTTP reply's %d bytes differ from the stream volume's payload", enc, len(reply))
		}
	}
}
