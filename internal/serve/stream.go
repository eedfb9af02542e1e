// Cine stream transport: a persistent TCP connection carrying wire frames
// in and volumes out, for the paper's real-time imaging loop. HTTP pays a
// request/response round of headers, connection churn and (for compounds)
// multipart framing per volume; a cine feed at tens of volumes per second
// pays it tens of times per second. The stream protocol amortises all of
// it into one hello: the client connects, sends the beamform query string
// once (same parameters as POST /beamform), then pushes compound frames
// back to back and reads volumes back in frame order. Frames decode with
// the same streaming ingest as HTTP — i16/f32 payloads land straight in
// guarded float32 planes — and each compound's queue slot is reserved
// before its payload finishes arriving, so the scheduler overlaps decode
// with the backlog. Replies use the negotiated f32 or f64 volume encoding;
// per-compound errors come back in-band as status volumes without killing
// the stream, so one malformed frame does not drop a live cine feed.
//
// Every way a stream can end is deliberate and counted apart: a clean EOF
// at a compound boundary, a client that vanished mid-frame, a protocol
// violation that desynced the byte stream, a server drain (the connection
// gets an in-band GOAWAY at the next compound boundary so the client can
// reconnect elsewhere without losing a frame), or a server-side failure.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/url"
	"os"
	"sync"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/wire"
)

// streamDepth bounds how many compounds one connection may have in flight
// (decoded or decoding, not yet answered). Depth >1 is what makes the
// stream a pipeline: the next upload decodes while the scheduler works the
// previous one.
const streamDepth = 4

// streamPollInterval is how often an idle stream read wakes to check for
// drain or context cancellation. Only the wait for a compound's first
// byte polls; once a compound starts arriving each of its transmit frames
// is read under StreamFrameTimeout instead.
const streamPollInterval = 250 * time.Millisecond

// StreamFrameTimeout bounds how long one transmit frame (header and
// payload) of a compound may take to arrive once the compound's first byte
// has. The compound's queue slot is reserved as soon as its first header
// parses, so an upload that stalls would otherwise pin that slot for as
// long as the peer keeps the socket open; on expiry the connection is
// closed as client-gone and the slot released. The deadline is re-armed per
// frame, not per compound — a 17.4 MB f64 frame fits it down to ≈ 5 Mbit/s —
// and never covers the idle wait between compounds.
const StreamFrameTimeout = 30 * time.Second

// MaxStreams caps the cine connections one server holds open at once. Each
// holds a reader and a writer goroutine and up to streamDepth decoded
// compounds, and a hello costs the client a few bytes — so without a cap an
// idle-after-hello flood pins unbounded goroutines and buffers. A hello
// beyond the cap is answered wire.StatusOverloaded and closed (counted in
// WireStats.StreamClosesOverloaded); a slot frees when its connection ends.
// Sixty-four is far past what one node beamforms at cine rates.
const MaxStreams = 64

// Injection points for the chaos harness: a read fault simulates the
// server-side socket dying between compounds, a write fault a reply that
// cannot be delivered. Both are internal-error closes, not client-gone.
var (
	streamReadFault  = faultpoint.New("serve.stream.read")
	streamWriteFault = faultpoint.New("serve.stream.write")
)

// ServeStream accepts persistent cine connections on ln until the
// listener closes or ctx is done. Protocol, all little-endian:
//
//	client → hello: "UBS1", query length, query string (the /beamform
//	         parameter set, e.g. "spec=paper&precision=float32&fmt=i16").
//	server → hello reply: status byte (0 ok) + message.
//	client → wire frames (internal/wire), one per transmit, transmit
//	         order, repeated per compound, back to back.
//	server → one volume ("UBV1") per compound, in order: the beamformed
//	         volume or scanline in the negotiated resp= encoding, or a
//	         non-zero status with an error message for that compound
//	         (StatusOverloaded: resend after backoff; StatusDegraded: shed
//	         by the overload ladder; StatusGoAway: the server is draining,
//	         reconnect elsewhere and resend).
//
// Streaming requires scheduled mode (the stream rides Begin/Complete
// pipelining); a pool-backed server refuses the hello.
func (s *Server) ServeStream(ctx context.Context, ln net.Listener) error {
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
			s.serveStreamConn(ctx, conn)
		}()
	}
}

// streamStatus maps a per-compound error onto its in-band reply status so
// clients can tell retryable conditions apart without parsing messages.
func streamStatus(err error) uint8 {
	switch {
	case errors.Is(err, ErrOverloaded):
		return wire.StatusOverloaded
	case errors.Is(err, ErrDegraded):
		return wire.StatusDegraded
	case errors.Is(err, ErrDraining):
		return wire.StatusGoAway
	default:
		return wire.StatusError
	}
}

// uploadDied reports whether a frame read failed because the peer went
// away — the byte stream ended mid-frame, or stopped for longer than the
// frame deadline — rather than because it sent something malformed.
func uploadDied(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, os.ErrDeadlineExceeded)
}

// serveStreamConn runs one cine connection to completion.
func (s *Server) serveStreamConn(ctx context.Context, conn net.Conn) {
	query, err := wire.ReadHello(conn)
	if err != nil {
		return // nothing sane to reply to
	}
	if s.openStreams.Add(1) > int64(s.maxStreams) {
		s.openStreams.Add(-1)
		wire.WriteHelloReply(conn, wire.StatusOverloaded,
			fmt.Sprintf("overloaded: %d cine streams open, retry after backoff", s.maxStreams))
		s.wireRec().recordStreamClose(streamCloseOverloaded)
		return
	}
	defer s.openStreams.Add(-1)
	q, err := url.ParseQuery(query)
	if err != nil {
		wire.WriteHelloReply(conn, 1, fmt.Sprintf("bad query: %v", err))
		return
	}
	opts, perr := ParseOptions(q, nil)
	if perr != nil {
		wire.WriteHelloReply(conn, 1, perr.Error())
		return
	}
	req, scanline, it, ip := opts.Request, opts.Scanline, opts.Theta, opts.Phi
	respEnc := opts.Resp
	if s.cfg.Scheduler == nil {
		wire.WriteHelloReply(conn, 1, "stream transport needs scheduled mode")
		return
	}
	if s.draining() {
		wire.WriteHelloReply(conn, 1, "draining: reconnect to another node")
		return
	}
	if err := wire.WriteHelloReply(conn, 0, "ok"); err != nil {
		return
	}
	rec := s.wireRec()
	rec.recordStream()

	// The reader goroutine (this one) decodes compounds and submits them;
	// the writer goroutine answers in submission order. results is the
	// in-order pipeline between them, its capacity the pipelining depth.
	type result struct {
		pend *PendingFrame
		err  error // decode/submit error to report in-band
	}
	results := make(chan result, streamDepth)
	writerDone := make(chan struct{})
	// writerCause is the writer's close verdict, if it stopped the stream:
	// read only after writerDone closes.
	writerCause := streamCloseClean
	// fail queues an in-band error reply unless the writer is gone.
	fail := func(err error) {
		select {
		case results <- result{err: err}:
		case <-writerDone:
		}
	}
	go func() {
		defer close(writerDone)
		for res := range results {
			var vol *beamform.Volume
			err := res.err
			if err == nil {
				wctx, cancel := context.WithTimeout(ctx, s.cfg.AcquireTimeout)
				vol, err = res.pend.Wait(wctx)
				cancel()
			}
			if ferr := streamWriteFault.Err(); ferr != nil {
				// Injected reply failure: an internal error, not the
				// client's doing — close and say so.
				writerCause = streamCloseInternal
				log.Printf("serve: stream reply failed (internal): %v", ferr)
				return
			}
			if err != nil {
				if werr := wire.WriteVolumeError(conn, streamStatus(err), err.Error()); werr != nil {
					writerCause = streamCloseClientGone
					log.Printf("serve: stream client gone mid-reply: %v", werr)
					return
				}
				continue
			}
			data := vol.Data
			theta, phi, depth := vol.Vol.Theta.N, vol.Vol.Phi.N, vol.Vol.Depth.N
			if scanline {
				data = vol.Scanline(it, ip)
				theta, phi = 1, 1
			}
			if err := wire.WriteVolume(conn, respEnc, theta, phi, depth, data); err != nil {
				writerCause = streamCloseClientGone
				log.Printf("serve: stream client gone mid-reply: %v", err)
				return
			}
			rec.recordReply(int64(len(data) * respEnc.SampleBytes()))
		}
	}()

	wantTx := txCount(req)
	cause := streamCloseClean
	var first [1]byte
readLoop:
	for {
		// Between compounds, poll for the first byte with a short read
		// deadline so a drain or cancellation interrupts an idle stream;
		// it replaces the frame deadline the last compound left armed, so
		// an idle connection is never timed out.
		var n int
		var rerr error
		for {
			if ctx.Err() != nil || s.draining() {
				cause = streamCloseDrain
				break readLoop
			}
			conn.SetReadDeadline(time.Now().Add(streamPollInterval))
			n, rerr = conn.Read(first[:])
			if n > 0 {
				break
			}
			var ne net.Error
			if errors.As(rerr, &ne) && ne.Timeout() {
				continue // idle poll tick; check drain and wait again
			}
			if rerr != nil {
				if !errors.Is(rerr, io.EOF) {
					cause = streamCloseClientGone
				}
				break readLoop
			}
		}
		conn.SetReadDeadline(time.Now().Add(s.streamFrameTimeout))
		if ferr := streamReadFault.Err(); ferr != nil {
			// Injected ingest failure between compounds: internal, close.
			log.Printf("serve: stream read failed (internal): %v", ferr)
			cause = streamCloseInternal
			break
		}

		// One compound: read and check the first header, reserve the queue
		// slot, then decode payloads — the upload overlaps the backlog.
		cr := &countingReader{r: io.MultiReader(bytes.NewReader(first[:n]), conn)}
		start := time.Now()
		h, herr := wire.ReadHeader(cr)
		if herr != nil {
			if uploadDied(herr) {
				cause = streamCloseClientGone // died or stalled mid-header
			} else {
				fail(wireErr(herr))
				cause = streamCloseDesync
			}
			break
		}
		if cerr := checkWireHeader(h, req, wantTx, 0, 0, s.cfg.MaxBodyBytes); cerr != nil {
			// The unread payload desynchronises the byte stream: report
			// in-band, then stop reading. The writer drains what's queued.
			fail(cerr)
			cause = streamCloseDesync
			break
		}
		// Per-compound lane override: the frame header's lane byte lets a
		// client interleave priorities on one connection (0 keeps the
		// connection's lane, 1 forces interactive, 2 forces bulk).
		creq := req
		if h.Lane >= 1 && int(h.Lane) <= numLanes {
			creq.Lane = Lane(h.Lane - 1)
		}
		pend, berr := s.cfg.Scheduler.Begin(creq)
		if berr != nil && !errors.Is(berr, ErrOverloaded) && !errors.Is(berr, ErrDraining) {
			fail(berr)
			cause = streamCloseDesync
			break
		}
		// On overload or drain pend is nil: decode anyway to keep the
		// stream in sync, drop the compound, and report in-band — one
		// saturated moment must not kill a live cine feed, and a draining
		// server still answers every frame it read before the GOAWAY.
		var p wirePayload
		var derr error
		for t := 0; t < wantTx; t++ {
			before := cr.n
			if t > 0 {
				start = time.Now()
				conn.SetReadDeadline(start.Add(s.streamFrameTimeout))
				if h, derr = wire.ReadHeader(cr); derr != nil {
					derr = wireErr(derr)
					break
				}
				if derr = checkWireHeader(h, req, wantTx, t, p.win, s.cfg.MaxBodyBytes); derr != nil {
					break
				}
			}
			if derr = decodeWireFrame(cr, h, req, wantTx, t, &p); derr != nil {
				break
			}
			rec.recordIngest(h.Encoding, false, cr.n-before, time.Since(start), p.kind())
		}
		if derr != nil {
			if pend != nil {
				pend.Abort()
			}
			if uploadDied(derr) {
				// The upload died or stalled mid-compound: a torn frame,
				// not a protocol violation — nobody is listening for a
				// reply.
				cause = streamCloseClientGone
				break
			}
			fail(derr)
			cause = streamCloseDesync
			break
		}
		if pend == nil {
			fail(berr)
			if errors.Is(berr, ErrDraining) {
				cause = streamCloseDrain
				break
			}
			continue
		}
		switch {
		case p.planesI16 != nil:
			pend.CompletePlanesI16(p.win, p.planesI16, p.scales)
		case p.planes != nil:
			pend.CompletePlanes(p.win, p.planes)
		default:
			pend.CompleteBuffers(p.tx)
		}
		select {
		case results <- result{pend: pend}:
		case <-writerDone:
			pend.Abort()
			break readLoop
		}
	}
	close(results)
	<-writerDone
	if writerCause != streamCloseClean {
		cause = writerCause
	} else if cause == streamCloseDrain {
		// Every compound read before the drain has been answered in order;
		// say goodbye in-band so the client reconnects without guessing.
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		wire.WriteGoAway(conn, "draining: reconnect to another node")
	}
	rec.recordStreamClose(cause)
}
