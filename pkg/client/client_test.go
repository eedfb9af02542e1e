package client

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ultrabeam/internal/wire"
)

// TestPostRetriesHonorRetryAfter: the server's queue-derived hint beats
// the client-side exponential schedule — two 503s with Retry-After: 2
// must produce two waits near 2s (±25% jitter), then the 200 lands.
func TestPostRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/beamform" {
			t.Errorf("SDK hit %s, want /v1/beamform", r.URL.Path)
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Ultrabeam-Encoding", "f32")
		var out [8]byte
		binary.LittleEndian.PutUint32(out[0:], math.Float32bits(1.5))
		binary.LittleEndian.PutUint32(out[4:], math.Float32bits(-2))
		w.Write(out[:])
	}))
	defer ts.Close()

	var slept []time.Duration
	c := &Client{
		Addr:  strings.TrimPrefix(ts.URL, "http://"),
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	res, err := c.Post(context.Background(), "spec=reduced", "raw", 1, 2, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) != 2 || res.Data[0] != 1.5 || res.Data[1] != -2 {
		t.Errorf("decoded %v", res.Data)
	}
	if res.Encoding != "f32" {
		t.Errorf("encoding %q", res.Encoding)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoff waits, want 2", len(slept))
	}
	for _, d := range slept {
		if d < 1500*time.Millisecond || d > 2500*time.Millisecond {
			t.Errorf("backoff %v outside the Retry-After: 2 jitter window", d)
		}
	}
}

// TestPostErrorsSurfaceRetryAfter: with the retry budget exhausted the
// SDK returns a typed error still carrying the server's hint — what the
// router's passthrough contract (and any batch caller) keys off.
func TestPostErrorsSurfaceRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := &Client{Addr: strings.TrimPrefix(ts.URL, "http://"), Retries: -1}
	_, err := c.Post(context.Background(), "", "raw", 1, 1, []float64{1})
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HTTPError", err)
	}
	if he.StatusCode != http.StatusServiceUnavailable || he.RetryAfter != "7" {
		t.Errorf("HTTPError{%d, RetryAfter:%q}", he.StatusCode, he.RetryAfter)
	}
}

func TestBackoffSchedule(t *testing.T) {
	for attempt, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
	} {
		for i := 0; i < 20; i++ {
			d := Backoff(attempt, "")
			if d < time.Duration(float64(want)*0.74) || d > time.Duration(float64(want)*1.26) {
				t.Fatalf("attempt %d: %v outside ±25%% of %v", attempt, d, want)
			}
		}
	}
	if d := Backoff(20, ""); d > time.Duration(5*float64(time.Second)*1.26) {
		t.Errorf("uncapped backoff %v", d)
	}
}

// stubStream serves one cine connection: hello handshake, then n single-
// frame compounds each answered with a volume echoing the frame's first
// sample, then a final action (GOAWAY, an in-band error, or nothing). It
// returns the first samples of the compounds it answered.
func stubStream(t *testing.T, ln net.Listener, answer int, then func(net.Conn)) (answered []float64) {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		return nil
	}
	defer conn.Close()
	if _, err := wire.ReadHello(conn); err != nil {
		t.Errorf("stub hello: %v", err)
		return nil
	}
	wire.WriteHelloReply(conn, 0, "ok")
	for i := 0; i < answer; i++ {
		f, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Errorf("stub frame %d: %v", i, err)
			return answered
		}
		if err := wire.WriteVolume(conn, wire.EncodingF64, 1, 1, 1, f.F64[:1]); err != nil {
			return answered
		}
		answered = append(answered, f.F64[0])
	}
	if then != nil {
		then(conn)
	}
	return answered
}

// TestStreamRehomeResends is the SDK's sequence-tracking contract: a
// GOAWAY mid-burst reconnects (through the Dial hook) and resends exactly
// the unanswered compounds, in order — nothing is beamformed twice. The
// first server hangs up right after its GOAWAY, so the burst's later Sends
// can hit a dead pipe while compound 1's reply is still unread: that reply
// must be consumed, not discarded with the connection.
func TestStreamRehomeResends(t *testing.T) {
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	defer ln2.Close()

	// Server 1 answers one compound then drains; server 2 takes the rest.
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		stubStream(t, ln1, 1, func(c net.Conn) { wire.WriteGoAway(c, "draining") })
	}()
	done2 := make(chan struct{})
	var second []float64 // published by close(done2)
	go func() {
		defer close(done2)
		second = stubStream(t, ln2, 3, nil)
	}()

	var dials atomic.Int32
	c := &Client{
		StreamAddr: ln1.Addr().String(),
		Sleep:      func(time.Duration) {},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			if dials.Add(1) == 1 {
				return net.Dial("tcp", ln1.Addr().String())
			}
			return net.Dial("tcp", ln2.Addr().String())
		},
	}
	s, err := c.DialStream(context.Background(), "spec=reduced&fmt=f64")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 1; i <= 4; i++ {
		if err := s.Send(Frame{Elements: 1, Window: 1, Samples: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i <= 4; i++ {
		v, err := s.Recv(ctx)
		if err != nil {
			t.Fatalf("compound %d: %v", i, err)
		}
		if len(v.Data) != 1 || v.Data[0] != float64(i) {
			t.Errorf("compound %d answered with %v — resend lost order", i, v.Data)
		}
	}
	if s.Pending() != 0 || s.Reconnects() != 1 {
		t.Errorf("pending=%d reconnects=%d, want 0 and 1", s.Pending(), s.Reconnects())
	}
	<-done1
	<-done2
	if len(second) != 3 || second[0] != 2 || second[1] != 3 || second[2] != 4 {
		t.Errorf("second server beamformed %v, want exactly the unanswered [2 3 4]", second)
	}
}

// TestStreamInBandErrorDefinitive: a per-compound error answers its
// compound (never resent) and the connection stays usable.
func TestStreamInBandErrorDefinitive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadHello(conn); err != nil {
			return
		}
		wire.WriteHelloReply(conn, 0, "ok")
		if _, err := wire.ReadFrame(conn, 0); err != nil {
			return
		}
		wire.WriteVolumeError(conn, wire.StatusDegraded, "shed by ladder")
		f, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return
		}
		wire.WriteVolume(conn, wire.EncodingF64, 1, 1, 1, f.F64[:1])
	}()

	c := &Client{StreamAddr: ln.Addr().String(), Sleep: func(time.Duration) {}}
	s, err := c.DialStream(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send(Frame{Elements: 1, Window: 1, Samples: []float64{7}})
	s.Send(Frame{Elements: 1, Window: 1, Samples: []float64{8}})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = s.Recv(ctx)
	var re *RemoteError
	if !errors.As(err, &re) || !re.Degraded() {
		t.Fatalf("got %v, want degraded *RemoteError", err)
	}
	v, err := s.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Data[0] != 8 {
		t.Errorf("second compound answered with %v", v.Data)
	}
	if s.Reconnects() != 0 {
		t.Errorf("in-band error triggered a reconnect")
	}
	<-done
}

// TestDialHelloRefused: a rejected handshake surfaces the server's reason.
func TestDialHelloRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wire.ReadHello(conn)
		wire.WriteHelloReply(conn, 1, "stream transport needs scheduled mode")
	}()
	_, err = DialHello(context.Background(), nil, ln.Addr().String(), "spec=reduced")
	if err == nil || !strings.Contains(err.Error(), "scheduled mode") {
		t.Errorf("got %v, want the server's refusal", err)
	}
}
