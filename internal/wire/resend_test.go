package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
)

// scriptConn accepts its first okWrites writes, fails every later one,
// and records what it was sent.
type scriptConn struct {
	net.Conn // nil: only Write and Close are used
	okWrites int
	writes   int
	sent     []byte
	closed   bool
}

func (c *scriptConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes > c.okWrites {
		return 0, errors.New("broken pipe")
	}
	c.sent = append(c.sent, p...)
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.closed = true
	return nil
}

// TestResenderKeepsFailedLegForReplies: after a failed write the leg stays
// current and open (its replies may still be unread) and later compounds
// are only queued; the replay on the next leg carries exactly the
// compounds nobody answered, in order.
func TestResenderKeepsFailedLegForReplies(t *testing.T) {
	old := &scriptConn{okWrites: 1}
	next := &scriptConn{okWrites: 100}
	dials := 0
	r := NewResender(old, func(context.Context) (net.Conn, error) { dials++; return next, nil }, func(int) {}, 3)
	for c := byte(1); c <= 3; c++ {
		if err := r.Send([]byte{c}); err != nil {
			t.Fatal(err)
		}
	}
	if old.writes != 2 || old.closed || r.Leg() != old {
		t.Fatalf("after a failed write: %d writes tried, closed=%v, still current=%v; want 2, false, true",
			old.writes, old.closed, r.Leg() == old)
	}
	r.Ack() // compound 1's reply, read from the old leg
	r.Drop(old)
	if err := r.Rehome(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(next.sent) != "[2 3]" || r.Pending() != 2 || dials != 1 || r.Reconnects() != 1 {
		t.Errorf("replayed %v, pending %d, dials %d, reconnects %d; want [2 3], 2, 1, 1",
			next.sent, r.Pending(), dials, r.Reconnects())
	}
}

// TestResenderBudgetRefillsOnAnswer: Rehome gives up after retries dials
// with no answer in between, waiting before every one but the first, and
// only an answered compound refills the budget.
func TestResenderBudgetRefillsOnAnswer(t *testing.T) {
	dials := 0
	var waits []int
	r := NewResender(nil, func(context.Context) (net.Conn, error) {
		dials++
		return nil, errors.New("connection refused")
	}, func(n int) { waits = append(waits, n) }, 3)
	r.Send([]byte{1})
	if err := r.Rehome(context.Background()); err == nil || dials != 3 || fmt.Sprint(waits) != "[1 2]" {
		t.Fatalf("Rehome %v after %d dials, waits %v; want an error after 3 dials, waits [1 2]", err, dials, waits)
	}
	if err := r.Rehome(context.Background()); err == nil || dials != 3 {
		t.Fatalf("an exhausted budget dialed again (%d dials, %v)", dials, err)
	}
	r.Ack()
	if r.Rehome(context.Background()); dials != 6 {
		t.Errorf("after an answer Rehome dialed %d more times, want 3", dials-3)
	}
	r.Close()
	if err := r.Rehome(context.Background()); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Rehome after Close: %v", err)
	}
}
