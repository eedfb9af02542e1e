package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
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
// answered (wire.Resender); a GOAWAY (server drain) or dead connection
// redials through the client's Dial hook with jittered backoff and resends
// only the unanswered compounds, in order — re-homing is invisible to the
// caller beyond latency. One goroutine may Send while another Recvs;
// neither method may itself be called concurrently.
type Stream struct {
	c    *Client
	enc  wire.Encoding
	legs *wire.Resender
}

// DialStream opens the cine transport and performs the hello handshake.
// query is the same /v1 parameter set POST accepts; its fmt= selects the
// frame encoding Send uses (default f64).
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
	dial := func(ctx context.Context) (net.Conn, error) {
		conn, err := DialHello(ctx, c.Dial, c.StreamAddr, query)
		if err != nil {
			c.logf("client: stream dial: %v", err)
		}
		return conn, err
	}
	conn, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	wait := func(attempt int) {
		d := Backoff(attempt-1, "")
		c.logf("client: stream reconnect attempt %d in %v", attempt+1, d.Round(time.Millisecond))
		c.sleep(d)
	}
	return &Stream{c: c, enc: enc, legs: wire.NewResender(conn, dial, wait, c.retries())}, nil
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
	return s.legs.Send(buf.Bytes())
}

// Recv returns the next answer in compound order. A server-side
// per-compound error comes back as *RemoteError — definitive for that
// compound (it will not be resent), connection still healthy. A GOAWAY or
// transport failure re-homes transparently: redial, resend the unanswered
// backlog, keep reading. The retry budget (Client.Retries) bounds
// consecutive reconnect attempts; any answered compound resets it.
func (s *Stream) Recv(ctx context.Context) (*Volume, error) {
	for {
		conn := s.legs.Leg()
		if conn == nil {
			if err := s.legs.Rehome(ctx); err != nil {
				return nil, err
			}
			continue
		}
		if dl, ok := ctx.Deadline(); ok {
			conn.SetReadDeadline(dl)
		}
		v, err := wire.ReadVolume(conn, 0)
		if err == nil {
			s.legs.Ack()
			return &Volume{Theta: v.Theta, Phi: v.Phi, Depth: v.Depth, Data: v.Data}, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Status != wire.StatusGoAway {
			s.legs.Ack()
			return nil, &RemoteError{Status: re.Status, Msg: re.Msg}
		}
		if wire.IsGoAway(err) {
			s.c.logf("client: server draining (GOAWAY); re-homing %d pending", s.Pending())
		} else {
			s.c.logf("client: stream read: %v; re-homing %d pending", err, s.Pending())
		}
		s.legs.Drop(conn)
	}
}

// Pending returns how many compounds await an answer.
func (s *Stream) Pending() int { return s.legs.Pending() }

// Reconnects returns how many times the stream re-homed.
func (s *Stream) Reconnects() int { return s.legs.Reconnects() }

// Close tears the stream down; pending compounds are abandoned.
func (s *Stream) Close() error { return s.legs.Close() }
