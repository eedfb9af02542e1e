package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
)

// ErrStreamClosed is what a Resender answers once Close has run.
var ErrStreamClosed = errors.New("wire: stream closed")

// Resender is the sequence-tracked resend machine of a cine stream: the
// half that both the SDK (toward its server) and the cluster router's relay
// (toward a backend) need, so it exists once. A stream's replies come back
// in compound order, so "answered" is a counter: every compound is kept,
// raw and oldest first, until a reply — a volume or an in-band per-compound
// error — answers it. When the leg fails (a GOAWAY, a dead connection), the
// caller drops it and Rehome dials a new one and replays the unanswered
// compounds in order. An unanswered compound was, by the drain contract,
// never beamformed, so nothing is beamformed twice.
//
// Two rules keep that true:
//
//   - A leg whose write failed stays open until its replies have been read.
//     A draining server answers what it took, says GOAWAY and hangs up, so
//     a write can fail while those answers are still unread; dropping the
//     leg there would discard them and resend compounds already answered.
//     Later compounds are only queued; the reader drops the leg when its
//     read side fails, which a connection that refuses writes soon does.
//   - The retry budget counts reconnects since the last answered compound.
//     A leg that dies right after its hello answers nothing, so a backend
//     in that state exhausts the budget instead of being redialed forever.
//
// One goroutine sends while another reads replies and calls Ack, Drop and
// Rehome; Close may come from either.
type Resender struct {
	dial    func(context.Context) (net.Conn, error)
	wait    func(attempt int)
	retries int

	mu         sync.Mutex
	leg        net.Conn
	sendDead   bool     // a write on leg failed; it is kept only for its replies to be read
	pending    [][]byte // raw unanswered compounds, oldest first
	attempt    int      // reconnects since the last answered compound
	reconnects int
	closed     bool
}

// NewResender starts the machine on leg, a connection whose hello was
// already acknowledged. dial opens a replacement leg, hello included.
// wait(n) blocks before the reconnect that follows n unanswered ones (the
// first reconnect is immediate: a GOAWAY is a clean handoff, not a
// failure). retries caps the reconnects without an answer in between; 0
// disables reconnecting.
func NewResender(leg net.Conn, dial func(context.Context) (net.Conn, error), wait func(attempt int), retries int) *Resender {
	return &Resender{leg: leg, dial: dial, wait: wait, retries: retries}
}

// Send queues one whole compound and writes it to the current leg. A write
// failure is not an error here: the compound is pending, and the leg is
// kept for its replies (see the type comment).
func (r *Resender) Send(compound []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrStreamClosed
	}
	r.pending = append(r.pending, compound)
	r.writeLocked(compound)
	return nil
}

func (r *Resender) writeLocked(compound []byte) {
	if r.leg == nil || r.sendDead {
		return
	}
	if _, err := r.leg.Write(compound); err != nil {
		r.sendDead = true
	}
}

// Leg returns the connection replies are read from, or nil when the last
// one was dropped and Rehome must run.
func (r *Resender) Leg() net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leg
}

// Ack records the answer to the oldest pending compound and refills the
// retry budget.
func (r *Resender) Ack() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) > 0 {
		r.pending = r.pending[1:]
	}
	r.attempt = 0
}

// Drop closes leg if it is still the current one: its read side failed or
// said GOAWAY, so it answers nothing more.
func (r *Resender) Drop(leg net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.leg == leg && leg != nil {
		leg.Close()
		r.leg = nil
	}
}

// Rehome dials a new leg and replays every pending compound on it, in
// order. A failed dial costs one attempt of the budget; after retries
// attempts with no answer in between it gives up. Sends during the wait
// and the dial only queue; the replay carries them.
func (r *Resender) Rehome(ctx context.Context) error {
	for {
		r.mu.Lock()
		attempt, closed, unanswered := r.attempt, r.closed, len(r.pending)
		if !closed && attempt < r.retries {
			r.attempt++
		}
		r.mu.Unlock()
		if closed {
			return ErrStreamClosed
		}
		if attempt >= r.retries {
			return fmt.Errorf("wire: stream gave up after %d reconnect attempts with %d compounds unanswered",
				attempt, unanswered)
		}
		if attempt > 0 {
			r.wait(attempt)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if leg, err := r.dial(ctx); err == nil {
			return r.install(leg)
		}
	}
}

func (r *Resender) install(leg net.Conn) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		leg.Close()
		return ErrStreamClosed
	}
	r.leg, r.sendDead = leg, false
	for _, c := range r.pending {
		r.writeLocked(c)
	}
	r.reconnects++
	return nil
}

// Pending returns how many compounds await an answer.
func (r *Resender) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Reconnects returns how many times Rehome installed a new leg.
func (r *Resender) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// Close tears the stream down; pending compounds are abandoned.
func (r *Resender) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.leg == nil {
		return nil
	}
	err := r.leg.Close()
	r.leg = nil
	return err
}
