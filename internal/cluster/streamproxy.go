package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ultrabeam/internal/wire"
	"ultrabeam/pkg/client"
)

// The cine stream proxy. A stream is pinned to one geometry by its hello,
// so the whole connection routes once — then the proxy is a relay:
// frames cross toward the owner verbatim (wire.CopyFrame — an i16
// payload's quantized samples and scale are untouched, which is what
// keeps volumes through the router bit-identical to direct serving) and
// volumes cross back verbatim (wire.CopyVolume).
//
// The one thing the relay interprets is the drain contract. A backend
// GOAWAY is hop-by-hop: the proxy consumes it, demotes the backend,
// re-homes the stream to the fingerprint's next owner and resends every
// unanswered compound in order (wire.Resender, the same machine the SDK
// runs) — the client sees nothing but latency. That works because the
// proxy buffers each compound before forwarding (a backend never receives
// a torn compound) and because an unanswered compound was, by the drain
// contract, never beamformed. A relay out of retry budget closes the
// client connection, and the client re-homes through the router.

// ServeStream accepts client cine connections on ln until the listener
// closes or ctx is done, relaying each to its geometry's owner.
func (r *Router) ServeStream(ctx context.Context, ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			r.relayStream(ctx, conn)
		}()
	}
}

// errTrackWriter distinguishes "client write failed" from "backend read
// failed" inside one CopyVolume call: only its own error means the
// client is gone.
type errTrackWriter struct {
	w   io.Writer
	err error
}

func (t *errTrackWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	if err != nil && t.err == nil {
		t.err = err
	}
	return n, err
}

// streamRelay is one routed cine stream. The resend machine (legs) is the
// SDK's; what is the relay's own is the owner lookup, the hop-by-hop
// GOAWAY, demoting a backend on direct evidence, and closing the backend
// leg once the client has finished sending.
type streamRelay struct {
	r       *Router
	query   string
	fp      string
	wantTx  int
	client  net.Conn
	legs    *wire.Resender
	backend string      // the current leg's owner; only the reply half dials
	done    atomic.Bool // the client finished sending
}

func (r *Router) relayStream(ctx context.Context, conn net.Conn) {
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	query, err := wire.ReadHello(conn)
	if err != nil {
		return
	}
	opts, err := parseQuery(query)
	if err != nil {
		wire.WriteHelloReply(conn, 1, err.Error())
		return
	}
	s := &streamRelay{
		r: r, query: query, fp: opts.Fingerprint(),
		wantTx: max(1, len(opts.Request.Config.Transmits)), client: conn,
	}
	// First leg before acking the client's hello: a cluster with no owner
	// refuses the hello with the reason, and an owner's refusal crosses as
	// the answer to the client's own hello.
	leg, err := s.dialLeg(ctx)
	if err != nil {
		status, msg := uint8(1), err.Error()
		var refused *wire.RemoteError
		if errors.As(err, &refused) {
			status, msg = refused.Status, refused.Msg
		}
		wire.WriteHelloReply(conn, status, msg)
		return
	}
	wait := func(attempt int) { time.Sleep(client.Backoff(attempt-1, "")) }
	s.legs = wire.NewResender(leg, s.dialLeg, wait, r.cfg.Retries)
	defer s.legs.Close()
	if err := wire.WriteHelloReply(conn, 0, "ok"); err != nil {
		return
	}
	r.stats.Streams.Add(1)

	replies := make(chan struct{})
	go func() {
		defer close(replies)
		// Whether everything owed was answered, the client left or the
		// retry budget ran out, the client connection is over: closing it
		// ends relayFrames, and a client still owed answers re-homes
		// through the router itself.
		defer conn.Close()
		if err := s.relayReplies(ctx); err != nil {
			r.logf("cluster: stream for %s over: %v", s.fp, err)
		}
	}()
	s.relayFrames()
	<-replies
}

// relayFrames is the client→backend half: read one full compound and hand
// it to the resend machine. Buffering the compound first means a backend
// swap mid-upload can never leave a torn compound behind.
func (s *streamRelay) relayFrames() {
	defer func() {
		s.done.Store(true)
		// Wake a reply half blocked on a leg that owes nothing more.
		if s.legs.Pending() == 0 {
			s.legs.Close()
		}
	}()
	for {
		var buf bytes.Buffer
		for t := 0; t < s.wantTx; t++ {
			h, err := wire.ReadHeader(s.client)
			if err != nil {
				return // client done (clean EOF) or gone or desynced — relay over
			}
			if h.PayloadBytes() > s.r.cfg.MaxBodyBytes {
				return
			}
			if err := wire.CopyFrame(&buf, s.client, h); err != nil {
				return
			}
		}
		if s.legs.Send(buf.Bytes()) != nil {
			return
		}
	}
}

// relayReplies is the backend→client half: forward answers in order, ack
// pending compounds, and re-home on GOAWAY or a dead leg. It returns once
// the client has finished sending and everything it sent is answered.
func (s *streamRelay) relayReplies(ctx context.Context) error {
	for !s.done.Load() || s.legs.Pending() > 0 {
		leg := s.legs.Leg()
		if leg == nil {
			if err := s.legs.Rehome(ctx); err != nil {
				return err
			}
			s.r.stats.Rehomes.Add(1)
			s.r.logf("cluster: stream re-homed to %s (%d compounds resent)", s.backend, s.legs.Pending())
			continue
		}
		tw := &errTrackWriter{w: s.client}
		status, err := wire.CopyVolume(tw, leg, 0)
		switch {
		case tw.err != nil:
			return tw.err // client gone; the relay is over
		case err != nil:
			s.drop(leg, "stream read: "+err.Error())
		case status == wire.StatusGoAway:
			// Hop-by-hop drain notice (already consumed, not forwarded):
			// this backend answers nothing more we are owed.
			s.r.markUnhealthy(s.backend, "stream GOAWAY")
			s.drop(leg, "goaway")
		default:
			s.legs.Ack()
		}
	}
	return nil
}

func (s *streamRelay) drop(leg net.Conn, reason string) {
	s.legs.Drop(leg)
	s.r.logf("cluster: stream leg to %s dropped (%s); %d compounds pending", s.backend, reason, s.legs.Pending())
}

// dialLeg opens a leg to the fingerprint's current owner. A transport
// failure is direct evidence and demotes the owner; a refused hello (a
// node at its stream cap, say) is the node's answer and demotes nothing.
func (s *streamRelay) dialLeg(ctx context.Context) (net.Conn, error) {
	owner, ok := s.r.Owner(s.fp)
	if !ok {
		return nil, errors.New("no backend available")
	}
	if owner.StreamAddr == "" {
		return nil, errors.New("owner " + owner.name() + " takes no streams")
	}
	dctx, cancel := context.WithTimeout(ctx, s.r.cfg.HealthTimeout)
	defer cancel()
	leg, err := client.DialHello(dctx, s.r.dialStream, owner.StreamAddr, s.query)
	if err != nil {
		s.r.logf("cluster: stream leg to %s for %s: %v", owner.name(), s.fp, err)
		var refused *wire.RemoteError
		if !errors.As(err, &refused) {
			s.r.markUnhealthy(owner.name(), "stream dial: "+err.Error())
		}
		return nil, err
	}
	s.backend = owner.name()
	return leg, nil
}
