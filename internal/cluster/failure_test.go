package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ultrabeam/internal/serve"
	"ultrabeam/internal/wire"
	"ultrabeam/pkg/client"
)

// The router's failure contracts pinned without timing: stream legs come
// from Router.dialStream, so a test decides exactly what each backend
// accepts and answers, and HTTP backends are stubs whose listeners close
// on cue.

// fakeRouter puts named backends on the ring without probing them. Their
// HTTP address is loopback port 1, which refuses at once, so a rebalance
// kicked by a demotion fails fast without reaching anything.
func fakeRouter(t *testing.T, retries int, names ...string) *Router {
	t.Helper()
	var bes []Backend
	for _, n := range names {
		bes = append(bes, Backend{Name: n, Addr: "127.0.0.1:1", StreamAddr: n})
	}
	r := New(Config{Backends: bes, Retries: retries, Logf: t.Logf})
	r.mu.Lock()
	for _, st := range r.state {
		st.healthy = true
	}
	r.rebuildRingLocked()
	r.mu.Unlock()
	t.Cleanup(r.Close)
	return r
}

// pipeRelay runs one relayed stream over an in-memory client connection
// and returns the client's end, hello already acknowledged.
func pipeRelay(t *testing.T, r *Router) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		r.relayStream(ctx, srv)
	}()
	t.Cleanup(func() {
		cancel() // a relay that never gives up on its own still ends
		cli.Close()
		<-done
	})
	if err := wire.WriteHello(cli, testQuery); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(cli); err != nil {
		t.Fatal(err)
	}
	return cli
}

// compound is one single-frame compound whose one sample is v.
func compound(t *testing.T, v float64) []byte {
	t.Helper()
	f, err := wire.NewFrame(wire.EncodingF64, 1, 1, 0, 1, []float64{v})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, f, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// echoLeg is a backend stream leg that acknowledges the hello, reads n
// compounds, then answers each with a volume echoing its sample and stays
// open. answered receives those samples once all n are read.
func echoLeg(n int, answered chan<- []float64) net.Conn {
	leg, be := net.Pipe()
	go func() {
		defer be.Close()
		if _, err := wire.ReadHello(be); err != nil {
			return
		}
		wire.WriteHelloReply(be, 0, "ok")
		var got []float64
		for i := 0; i < n; i++ {
			f, err := wire.ReadFrame(be, 0)
			if err != nil {
				return
			}
			got = append(got, f.F64[0])
		}
		answered <- got
		for _, v := range got {
			if wire.WriteVolume(be, wire.EncodingF64, 1, 1, 1, []float64{v}) != nil {
				return
			}
		}
		io.Copy(io.Discard, be) // stay up until the relay hangs up
	}()
	return leg
}

// TestStreamLegDiesAfterHello: a backend whose legs die right after the
// hello answers nothing, so it spends the retry budget — Retries+1 legs in
// all, a backoff between redials — and then the relay closes the client
// connection so the SDK re-homes through the router itself.
func TestStreamLegDiesAfterHello(t *testing.T) {
	const retries = 2
	r := fakeRouter(t, retries, "node-a")
	var legs atomic.Int32
	r.dialStream = func(ctx context.Context, addr string) (net.Conn, error) {
		legs.Add(1)
		leg, be := net.Pipe()
		go func() {
			defer be.Close()
			if _, err := wire.ReadHello(be); err == nil {
				wire.WriteHelloReply(be, 0, "ok")
			}
		}()
		return leg, nil
	}
	start := time.Now()
	cli := pipeRelay(t, r)
	c1 := compound(t, 1)
	go cli.Write(c1)

	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cli.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("client read %v, want EOF: the relay must hang up once out of budget", err)
	}
	if n := legs.Load(); n != retries+1 {
		t.Errorf("relay opened %d legs, want Retries+1 = %d", n, retries+1)
	}
	// The first redial is immediate; the second waits out Backoff(0).
	if el := time.Since(start); el < 75*time.Millisecond {
		t.Errorf("gave up after %v: no backoff between redials", el)
	}
}

// drainingLeg is a leg to a backend that took compound 1 and is draining.
// Its hello reply reads at once; every write after compound 1 fails, and
// only then do its answer to compound 1 and its GOAWAY become readable —
// the order a real drain can present them in, pinned without sockets.
type drainingLeg struct {
	net.Conn // nil: only the methods below are used
	hello    *bytes.Reader
	rest     *bytes.Reader
	writes   int
	failed   chan struct{}
	closed   chan struct{}
	once     sync.Once
}

func newDrainingLeg(t *testing.T) *drainingLeg {
	var hello, rest bytes.Buffer
	wire.WriteHelloReply(&hello, 0, "ok")
	if err := wire.WriteVolume(&rest, wire.EncodingF64, 1, 1, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	wire.WriteGoAway(&rest, "draining")
	return &drainingLeg{
		hello: bytes.NewReader(hello.Bytes()), rest: bytes.NewReader(rest.Bytes()),
		failed: make(chan struct{}), closed: make(chan struct{}),
	}
}

func (d *drainingLeg) Write(p []byte) (int, error) {
	if d.writes++; d.writes <= 2 { // the hello, then compound 1
		return len(p), nil
	}
	if d.writes == 3 {
		close(d.failed)
	}
	return 0, errors.New("broken pipe")
}

func (d *drainingLeg) Read(p []byte) (int, error) {
	if d.hello.Len() > 0 {
		return d.hello.Read(p)
	}
	select {
	case <-d.failed:
		return d.rest.Read(p)
	case <-d.closed:
		return 0, net.ErrClosed
	}
}

func (d *drainingLeg) Close() error {
	d.once.Do(func() { close(d.closed) })
	return nil
}

func (d *drainingLeg) SetDeadline(time.Time) error { return nil }

// TestStreamWriteFailureDrainsOldLeg: a write to the owner fails while its
// answer to compound 1 and its GOAWAY are still unread. The leg must stay
// for those replies: compound 1 is answered from it, the GOAWAY demotes the
// owner, and only [2 3 4] are resent — to the new owner, on the one new
// leg. Dropping the leg at the write would resend compound 1 and, with the
// GOAWAY unread, redial the draining owner.
func TestStreamWriteFailureDrainsOldLeg(t *testing.T) {
	r := fakeRouter(t, 8, "node-a", "node-b")
	fp := fingerprint(t, testQuery)
	drainer, _ := r.Owner(fp)
	answered := make(chan []float64, 1)
	var mu sync.Mutex
	var dials []string
	r.dialStream = func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		dials = append(dials, addr)
		switch {
		case addr != drainer.StreamAddr:
			return echoLeg(3, answered), nil
		case len(dials) == 1:
			return newDrainingLeg(t), nil
		}
		return nil, errors.New("connection refused") // the drainer has exited
	}
	cli := pipeRelay(t, r)
	var burst []byte
	for v := 1; v <= 4; v++ {
		burst = append(burst, compound(t, float64(v))...)
	}
	go cli.Write(burst)

	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	for v := 1; v <= 4; v++ {
		vol, err := wire.ReadVolume(cli, 0)
		if err != nil {
			t.Fatalf("volume %d: %v", v, err)
		}
		if vol.Data[0] != float64(v) {
			t.Errorf("volume %d answered with %v — resend lost order", v, vol.Data)
		}
	}
	if got := <-answered; fmt.Sprint(got) != "[2 3 4]" {
		t.Errorf("new owner beamformed %v, want exactly the unanswered [2 3 4]", got)
	}
	survivor, _ := r.Owner(fp)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(dials) != fmt.Sprint([]string{drainer.StreamAddr, survivor.StreamAddr}) || survivor == drainer {
		t.Errorf("legs dialed %v, want the drainer once, then the survivor", dials)
	}
}

// TestStreamRefusedHelloKeepsOwner: a node at its stream cap refuses the
// hello with StatusOverloaded. That is the node's answer, not evidence it
// is dead: the client gets it as the refusal of its own hello, status and
// reason intact, the owner stays on the ring, and no rebalance runs.
func TestStreamRefusedHelloKeepsOwner(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const reason = "overloaded: 64 cine streams open, retry after backoff"
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wire.ReadHello(conn)
			wire.WriteHelloReply(conn, wire.StatusOverloaded, reason)
			conn.Close()
		}
	}()
	r, _, streamAddr := serveRouter(t, Backend{
		Name: "capped", Addr: strings.TrimPrefix(stub.URL, "http://"), StreamAddr: ln.Addr().String(),
	})
	rebalances := func() int64 {
		r.wg.Wait()
		return r.stats.Rebalances.Load()
	}
	before := rebalances()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = client.DialHello(ctx, nil, streamAddr, testQuery)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusOverloaded || re.Msg != reason {
		t.Fatalf("client hello: %v, want the node's StatusOverloaded refusal %q", err, reason)
	}
	if _, ok := r.Owner(fingerprint(t, testQuery)); !ok {
		t.Error("a refused hello demoted the owner")
	}
	if after := rebalances(); after != before {
		t.Errorf("rebalances %d → %d on a refused hello", before, after)
	}
}

// TestRouterBodyCapMatchesNode: a body over the cap gets the node's own
// answer, 413, whether it goes to the node directly or through the router.
func TestRouterBodyCapMatchesNode(t *testing.T) {
	spec := testSpec()
	body, ct, err := client.EncodeBody("f64", spec.Elements(), spec.EchoBufferSamples(), testSamples(spec))
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(body) / 2)
	sched := serve.NewScheduler(serve.SchedulerConfig{MaxGeometries: 1})
	defer sched.Close()
	srv, err := serve.NewServer(serve.ServerConfig{Scheduler: sched, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	node := httptest.NewServer(srv)
	defer node.Close()
	r := New(Config{Backends: []Backend{{Name: "node", Addr: strings.TrimPrefix(node.URL, "http://")}}, MaxBodyBytes: limit})
	r.CheckNow(context.Background())
	defer r.Close()
	router := httptest.NewServer(r.Handler())
	defer router.Close()

	status := func(base string) int {
		t.Helper()
		resp, err := http.Post(base+"/v1/beamform?"+testQuery, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	direct, routed := status(node.URL), status(router.URL)
	if direct != http.StatusRequestEntityTooLarge || routed != direct {
		t.Errorf("oversized body: node %d, router %d; want 413 from both", direct, routed)
	}
}

// TestProxyRetriesPastDeadOwner: the owner's HTTP listener closes between
// probes. The round trip fails, the owner is demoted, and the one retry is
// answered by the recomputed owner; with both backends dead the answer is
// 502 after that one retry.
func TestProxyRetriesPastDeadOwner(t *testing.T) {
	stubs := func() (map[string]*httptest.Server, []Backend) {
		servers := map[string]*httptest.Server{}
		var bes []Backend
		for _, name := range []string{"node-a", "node-b"} {
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, `{"status":"ok"}`) })
			mux.HandleFunc("POST /v1/beamform", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, name) })
			s := httptest.NewServer(mux)
			t.Cleanup(s.Close)
			servers[name] = s
			bes = append(bes, Backend{Name: name, Addr: strings.TrimPrefix(s.URL, "http://")})
		}
		return servers, bes
	}
	post := func(addr string) (*http.Response, string) {
		t.Helper()
		body, ct, err := client.EncodeBody("f64", 1, 1, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/v1/beamform?"+testQuery, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp, string(msg)
	}
	retried := func(r *Router) int64 {
		return r.stats.Retried.Load()
	}
	fp := fingerprint(t, testQuery)

	t.Run("owner dead", func(t *testing.T) {
		servers, bes := stubs()
		r, addr, _ := serveRouter(t, bes...)
		owner, _ := r.Owner(fp)
		servers[owner.Name].Close()
		resp, msg := post(addr)
		survivor, ok := r.Owner(fp)
		if !ok || survivor.Name == owner.Name {
			t.Fatalf("owner %s still on the ring after its dial failed", owner.Name)
		}
		if resp.StatusCode != http.StatusOK || msg != survivor.Name || resp.Header.Get("X-Ultrabeam-Backend") != survivor.Name {
			t.Errorf("HTTP %d %q from %q, want 200 from the survivor %s",
				resp.StatusCode, msg, resp.Header.Get("X-Ultrabeam-Backend"), survivor.Name)
		}
		if n := retried(r); n != 1 {
			t.Errorf("retried = %d, want 1", n)
		}
	})
	t.Run("both dead", func(t *testing.T) {
		servers, bes := stubs()
		r, addr, _ := serveRouter(t, bes...)
		for _, s := range servers {
			s.Close()
		}
		if resp, msg := post(addr); resp.StatusCode != http.StatusBadGateway {
			t.Errorf("HTTP %d %q, want 502", resp.StatusCode, msg)
		}
		if n := retried(r); n != 1 {
			t.Errorf("retried = %d, want 1", n)
		}
	})
}
