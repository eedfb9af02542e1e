package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"ultrabeam/internal/serve"
	"ultrabeam/internal/wire"
	"ultrabeam/pkg/client"
)

// node is the system under test: the real scheduler and server, in this
// process, on loopback — the HTTP handler and the UBF1 stream listener
// usbeamd mounts, with its default scheduler configuration.
type node struct {
	sched      *serve.Scheduler
	srv        *serve.Server
	hs         *http.Server
	httpAddr   string
	streamLn   net.Listener
	streamAddr string
	cancel     context.CancelFunc
	streamDone chan struct{}
}

func startNode() (*node, error) {
	sched := serve.NewScheduler(serve.SchedulerConfig{})
	srv, err := serve.NewServer(serve.ServerConfig{Scheduler: sched, AcquireTimeout: time.Minute})
	if err != nil {
		sched.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		sched.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{
		sched: sched, srv: srv, hs: &http.Server{Handler: srv},
		httpAddr: ln.Addr().String(), streamLn: sln, streamAddr: sln.Addr().String(),
		cancel: cancel, streamDone: make(chan struct{}),
	}
	go n.hs.Serve(ln) // returns ErrServerClosed on stop
	go func() {
		defer close(n.streamDone)
		srv.ServeStream(ctx, sln) // returns once the listener closes and every connection has ended
	}()
	return n, nil
}

// stop tears the node down and waits for every goroutine it started.
func (n *node) stop() {
	n.hs.Shutdown(context.Background())
	n.cancel()
	n.streamLn.Close()
	<-n.streamDone
	n.sched.Close()
}

// reply is one answered (or failed) request as the client saw it. sent is
// taken before the first request byte is written and recv after the last
// reply byte is read; wrote and first are only stamped on a traced run.
type reply struct {
	seq                      int
	sent, wrote, first, recv time.Time
	data                     []float64
	err                      error
}

// loadClient drives one workload closed-loop: each connection sends its
// next request only when one of its depth slots has been answered.
type loadClient interface {
	// run issues up to limit requests, none after until, waits for every
	// reply and hands each to done on the goroutine that read it (after the
	// receive timestamp — verification never sits inside a latency). A
	// transport error ends the run: the connection state is unknown.
	run(until time.Time, limit int, traced bool, done func(reply)) error
	close()
}

func dial(n *node, in *inputs) (loadClient, error) {
	if in.w.http {
		tr := &http.Transport{MaxIdleConnsPerHost: in.w.conns, DisableCompression: true}
		return &httpClient{
			in: in, url: "http://" + n.httpAddr + "/v1/beamform?" + in.w.query,
			tr: tr, hc: &http.Client{Transport: tr},
		}, nil
	}
	conn, err := net.Dial("tcp", n.streamAddr)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(conn, in.w.query); err != nil {
		conn.Close()
		return nil, err
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return &streamClient{in: in, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// streamClient is one UBF1 cine connection with in.w.depth compounds in
// flight: a writer pushes pre-encoded compounds, the reader takes volumes
// back in order.
type streamClient struct {
	in   *inputs
	conn net.Conn
	br   *bufio.Reader
	seq  int
}

func (c *streamClient) close() { c.conn.Close() }

func (c *streamClient) run(until time.Time, limit int, traced bool, done func(reply)) error {
	depth := c.in.w.depth
	slots := make(chan struct{}, depth) // one token per compound in flight
	sentQ := make(chan reply, depth)    // in send order, which is reply order; never fuller than slots
	var broken atomic.Bool              // the reader lost sync: stop sending
	var writeErr error
	go func() {
		defer close(sentQ)
		for i := 0; i < limit; i++ {
			slots <- struct{}{}
			if broken.Load() || !time.Now().Before(until) {
				return
			}
			r := reply{seq: c.seq}
			c.seq++
			r.sent = time.Now()
			if _, err := c.conn.Write(c.in.bodies[r.seq%rotation]); err != nil {
				writeErr = fmt.Errorf("stream write %d: %w", r.seq, err)
				return
			}
			if traced {
				r.wrote = time.Now()
			}
			sentQ <- r
		}
	}()
	var readErr error
	for r := range sentQ {
		if readErr != nil {
			<-slots // keep the writer moving until it sees broken
			continue
		}
		if traced {
			c.br.Peek(1) // an error here resurfaces in ReadVolume
			r.first = time.Now()
		}
		vol, err := wire.ReadVolume(c.br, 0)
		r.recv = time.Now()
		<-slots
		var remote *wire.RemoteError
		switch {
		case err == nil:
			r.data = vol.Data
		case errors.As(err, &remote):
			r.err = err // answered in band: the stream stays in sync
		default:
			readErr = fmt.Errorf("stream read %d: %w", r.seq, err)
			broken.Store(true)
			continue
		}
		done(r)
	}
	if readErr != nil {
		return readErr
	}
	return writeErr // assigned before sentQ closed, so ordered before this read
}

// httpClient is in.w.conns keep-alive connections, each posting one
// request at a time.
type httpClient struct {
	in  *inputs
	url string
	tr  *http.Transport
	hc  *http.Client

	mu  sync.Mutex
	seq int
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

func (c *httpClient) run(until time.Time, limit int, traced bool, done func(reply)) error {
	issued := 0 // under c.mu, like seq
	errs := make([]error, c.in.w.conns)
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				c.mu.Lock()
				if issued >= limit || !time.Now().Before(until) {
					c.mu.Unlock()
					return
				}
				issued++
				r := reply{seq: c.seq}
				c.seq++
				c.mu.Unlock()
				if err := c.post(&r, traced); err != nil {
					errs[k] = err
					return
				}
				done(r)
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// post runs one request. A non-200 status is the server's answer and lands
// in r.err; only a broken connection is returned.
func (c *httpClient) post(r *reply, traced bool) error {
	ctx := context.Background()
	// The transport fires the hooks on its own goroutines; offsets from
	// r.sent cross back through atomics.
	var wrote, first atomic.Int64
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(r.sent))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(r.sent))) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.in.bodies[r.seq%rotation]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	r.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("post %d: %w", r.seq, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.recv = time.Now()
	if err != nil {
		return fmt.Errorf("post %d: reading reply: %w", r.seq, err)
	}
	if traced {
		r.wrote = r.sent.Add(time.Duration(wrote.Load()))
		r.first = r.sent.Add(time.Duration(first.Load()))
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("post %d: %s: %s", r.seq, resp.Status, bytes.TrimSpace(raw))
		return nil
	}
	r.data, r.err = client.DecodeSamples(raw, resp.Header.Get("X-Ultrabeam-Encoding"))
	return nil
}

// forever is the request limit of a run bounded by time alone.
const forever = math.MaxInt
