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
// burst of i16 compounds pipelined ahead of the replies, volumes back in
// order matching the HTTP path above 60 dB, and stream counters moving.
func TestStreamCine(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}
	query := tinyQuery(url.Values{"precision": {"float32"}, "resp": {"f32"}})

	// HTTP f64 reference volume on the same scheduler.
	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(url.Values{"precision": {"float32"}}),
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
	body := encodeWire(t, wire.EncodingI16, tx, 8192)
	for i := 0; i < n; i++ {
		if _, err := conn.Write(body); err != nil {
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
	if ws.FramesI16 < n {
		t.Errorf("i16 frames = %d, want ≥ %d", ws.FramesI16, n)
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

// TestStreamErrors: a bad hello is refused with a message; a frame whose
// geometry mismatches the connection comes back as an in-band error reply
// rather than a dropped connection mid-write.
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

	t.Run("pool_mode_refused", func(t *testing.T) {
		p := NewPool(PoolConfig{MaxSessions: 1})
		defer p.Close()
		psrv, err := NewServer(ServerConfig{Pool: p})
		if err != nil {
			t.Fatal(err)
		}
		conn := dialStream(t, psrv)
		if err := wire.WriteHello(conn, tinyQuery(nil)); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadHelloReply(conn); err == nil {
			t.Fatal("pool-backed stream hello accepted")
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
