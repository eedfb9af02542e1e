package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"sync"
	"time"

	"ultrabeam/internal/wire"
)

// Frame is one transmit's echo samples, element-major. Send fills the
// compound bookkeeping (transmit index/count) from its argument order.
type Frame struct {
	Elements int
	Window   int
	Samples  []float64
	// Lane optionally overrides the connection's scheduling lane for this
	// compound (0 keeps the connection lane, 1 forces interactive, 2
	// forces bulk) — the per-frame lane byte of the wire header.
	Lane uint8
}

// Volume is one decoded stream reply.
type Volume struct {
	Theta, Phi, Depth int
	Data              []float64
}

// Stream is a persistent cine connection: compounds pushed with Send,
// volumes read in order with Recv. It sequence-tracks what the server has
// answered; a GOAWAY (server drain) or dead connection redials through
// the client's Dial hook with jittered backoff and resends only the
// unanswered compounds, in order — re-homing is invisible to the caller
// beyond latency. One goroutine may Send while another Recvs; neither
// method may itself be called concurrently.
type Stream struct {
	c     *Client
	query string
	enc   wire.Encoding

	mu         sync.Mutex
	conn       net.Conn
	sendDead   bool     // a Send write failed on conn; it is kept only for Recv to drain
	pending    [][]byte // encoded unanswered compounds, oldest first
	attempt    int      // consecutive failed reconnect attempts (progress resets)
	reconnects int
	closed     bool
}

// DialStream opens the cine transport and performs the hello handshake.
// query is the same /v1 parameter set POST accepts; its fmt= selects the
// frame encoding Send uses (default f64 — "raw" is not a stream format).
func (c *Client) DialStream(ctx context.Context, query string) (*Stream, error) {
	enc := wire.EncodingF64
	q, err := url.ParseQuery(query)
	if err != nil {
		return nil, fmt.Errorf("client: stream query: %w", err)
	}
	if f := q.Get("fmt"); f != "" {
		if enc, err = wire.ParseEncoding(f); err != nil {
			return nil, err
		}
	}
	conn, err := DialHello(ctx, c.Dial, c.StreamAddr, query)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, query: query, enc: enc, conn: conn}, nil
}

// DialHello dials addr (through dial, or TCP when nil) and runs the
// stream handshake: hello out, acknowledgement back. A refused hello
// surfaces the server's reason as a *wire.RemoteError. This is the
// low-level half DialStream builds on; the cluster router uses it
// directly to open backend legs it then relays raw frames over.
func DialHello(ctx context.Context, dial func(context.Context, string) (net.Conn, error), addr, query string) (net.Conn, error) {
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
		defer conn.SetDeadline(time.Time{})
	}
	if err := wire.WriteHello(conn, query); err != nil {
		conn.Close()
		return nil, err
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Send pushes one compound: frames in transmit order (their count must
// match the query's transmits=). The compound is tracked as pending until
// a reply — or an in-band per-compound error — answers it; a write
// failure here is not fatal, Recv repairs the connection and resends once
// it has read what the old one still holds.
func (s *Stream) Send(frames ...Frame) error {
	if len(frames) == 0 {
		return errors.New("client: empty compound")
	}
	var buf bytes.Buffer
	for i, f := range frames {
		wf, err := wire.NewFrame(s.enc, f.Elements, f.Window, i, len(frames), f.Samples)
		if err != nil {
			return err
		}
		wf.Header.Lane = f.Lane
		if err := wire.WriteFrame(&buf, wf, 0); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("client: stream closed")
	}
	s.pending = append(s.pending, buf.Bytes())
	if s.conn != nil && !s.sendDead {
		if _, err := s.conn.Write(buf.Bytes()); err != nil {
			// A draining server answers what it took, says GOAWAY and hangs
			// up, so a write can fail while those replies are still unread
			// on this connection. Closing it here would discard them and
			// resend — beamform twice — compounds already answered, so the
			// connection stays for Recv to drain; it re-homes when the read
			// side fails, which a connection that refuses writes soon does.
			s.sendDead = true
		}
	}
	return nil
}

// Recv returns the next answer in compound order. A server-side
// per-compound error comes back as *RemoteError — definitive for that
// compound (it will not be resent), connection still healthy. A GOAWAY or
// transport failure re-homes transparently: redial, resend the unanswered
// backlog, keep reading. The retry budget (Client.Retries) bounds
// consecutive reconnect attempts; any answered compound resets it.
func (s *Stream) Recv(ctx context.Context) (*Volume, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errors.New("client: stream closed")
		}
		conn := s.conn
		s.mu.Unlock()
		if conn == nil {
			if err := s.rehome(ctx); err != nil {
				return nil, err
			}
			continue
		}
		if dl, ok := ctx.Deadline(); ok {
			conn.SetReadDeadline(dl)
		}
		v, err := wire.ReadVolume(conn, 0)
		if err == nil {
			s.ackOne()
			return &Volume{Theta: v.Theta, Phi: v.Phi, Depth: v.Depth, Data: v.Data}, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Status != wire.StatusGoAway {
			s.ackOne()
			return nil, &RemoteError{Status: re.Status, Msg: re.Msg}
		}
		if wire.IsGoAway(err) {
			s.c.logf("client: server draining (GOAWAY); re-homing %d pending", s.Pending())
		} else {
			s.c.logf("client: stream read: %v; re-homing %d pending", err, s.Pending())
		}
		s.mu.Lock()
		if s.conn == conn {
			conn.Close()
			s.conn = nil
		}
		s.mu.Unlock()
	}
}

// ackOne records a definitive answer for the oldest pending compound.
func (s *Stream) ackOne() {
	s.mu.Lock()
	if len(s.pending) > 0 {
		s.pending = s.pending[1:]
	}
	s.attempt = 0
	s.mu.Unlock()
}

// rehome rebuilds the connection: backoff, redial + hello, resend every
// pending compound in order. Sends block for the duration (they would
// only race the resend otherwise).
func (s *Stream) rehome(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return errors.New("client: stream closed")
		}
		if s.attempt > s.c.retries() {
			return fmt.Errorf("client: stream gave up after %d reconnect attempts with %d compounds unanswered",
				s.attempt, len(s.pending))
		}
		if s.attempt > 0 {
			d := Backoff(s.attempt-1, "")
			s.c.logf("client: stream reconnect %d (%d unanswered) in %v",
				s.reconnects+1, len(s.pending), d.Round(time.Millisecond))
			s.c.sleep(d)
		}
		s.attempt++
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := DialHello(ctx, s.c.Dial, s.c.StreamAddr, s.query)
		if err != nil {
			s.c.logf("client: stream redial: %v", err)
			continue
		}
		ok := true
		for _, buf := range s.pending {
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s.conn, s.sendDead = conn, false
		s.reconnects++
		return nil
	}
}

// Pending returns how many compounds await an answer.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Reconnects returns how many times the stream re-homed.
func (s *Stream) Reconnects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconnects
}

// Close tears the stream down; pending compounds are abandoned.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.conn != nil {
		err := s.conn.Close()
		s.conn = nil
		return err
	}
	return nil
}
