package serve

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"ultrabeam/internal/core"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// stallReader delivers nothing for a while, once, in the middle of a body.
type stallReader struct{ d time.Duration }

func (s *stallReader) Read([]byte) (int, error) {
	time.Sleep(s.d)
	return 0, io.EOF
}

// TestHTTPServerDropsSlowHeaders: the daemons' http.Server closes a
// connection whose request headers never finish, and does not mistake a
// full-size f64 upload for one. The header bound is shortened on this
// instance so the test need not wait the production ten seconds; the POST
// is the reduced spec's 256 × 8512-sample f64 frame (17.4 MB) whose body
// stalls for twice that bound half-way through.
func TestHTTPServerDropsSlowHeaders(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{})
	t.Cleanup(sched.Close)
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer("127.0.0.1:0", srv)
	if hs.ReadHeaderTimeout != HTTPReadHeaderTimeout || hs.IdleTimeout != HTTPIdleTimeout ||
		HTTPReadHeaderTimeout <= 0 || HTTPIdleTimeout <= 0 {
		t.Fatalf("NewHTTPServer bounds: header %v, idle %v", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	const headerBound = 250 * time.Millisecond
	hs.ReadHeaderTimeout = headerBound
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	// A request line and one header, never the blank line that ends them.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/beamform HTTP/1.1\r\nHost: slow\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(20 * headerBound))
	if _, err := io.Copy(io.Discard, conn); err != nil { // returns nil at the server's close
		t.Fatalf("slow-header connection still open after %v: %v", time.Since(start), err)
	}
	if waited := time.Since(start); waited < headerBound/2 {
		t.Fatalf("connection closed after %v, before the %v header bound", waited, headerBound)
	}

	spec := core.ReducedSpec()
	spec.FocalTheta, spec.FocalPhi, spec.FocalDepth = 5, 3, 4 // a small grid: the body is the point
	body := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{tinyFrame(t, spec)}, 0)
	if len(body) < 17_400_000 {
		t.Fatalf("f64 body is %d bytes, want the 17.4 MB frame", len(body))
	}
	q := url.Values{"spec": {"reduced"}, "ftheta": {"5"}, "fphi": {"3"}, "fdepth": {"4"}}
	half := len(body) / 2
	req, err := http.NewRequest("POST", "http://"+ln.Addr().String()+"/v1/beamform?"+q.Encode(),
		io.MultiReader(bytes.NewReader(body[:half]), &stallReader{2 * headerBound}, bytes.NewReader(body[half:])))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("17.4 MB f64 POST: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(raw) != 8*5*3*4 {
		t.Fatalf("17.4 MB f64 POST: status %d, %d reply bytes: %.200s", resp.StatusCode, len(raw), raw)
	}
}
