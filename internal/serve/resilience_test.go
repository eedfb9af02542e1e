package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// TestSchedulerDeadlineExpiresInQueue: a frame whose client-supplied
// deadline passes while it waits in queue fails with ErrExpired before it
// ever reaches a core slot, and the expiry shows up in the stats.
func TestSchedulerDeadlineExpiresInQueue(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 8})
	defer sched.Close()
	req := tinyRequest()
	req.Lane = LaneBulk
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	sched.slots <- struct{}{} // plug the turnstile: everything queues

	impatient := req
	impatient.Deadline = 10 * time.Millisecond
	var expiredErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, expiredErr = sched.Submit(context.Background(), impatient, frame)
	}()
	patient := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := sched.Submit(context.Background(), req, frame)
		patient <- err
	}()
	waitQueued(sched, 2)
	time.Sleep(30 * time.Millisecond) // let the impatient deadline lapse
	<-sched.slots                     // open the turnstile
	wg.Wait()
	if !errors.Is(expiredErr, ErrExpired) {
		t.Errorf("expired frame: %v, want ErrExpired", expiredErr)
	}
	if err := <-patient; err != nil {
		t.Errorf("deadline-free frame alongside it: %v", err)
	}
	st := sched.Stats()
	if st.Expired != 1 {
		t.Errorf("stats expired = %d, want 1", st.Expired)
	}
	if st.Lanes["bulk"].Expired != 1 {
		t.Errorf("bulk lane expired = %d, want 1", st.Lanes["bulk"].Expired)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1 (the patient frame)", st.Completed)
	}
}

// TestSchedulerDrain: Drain finishes every frame already queued, refuses
// new ones with ErrDraining, and returns once the queues are empty.
func TestSchedulerDrain(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 16})
	defer sched.Close()
	req := tinyRequest()
	req.Lane = LaneBulk
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	sched.slots <- struct{}{} // hold the backlog in queue

	const n = 4
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sched.Submit(context.Background(), req, frame); err != nil {
				t.Errorf("queued-before-drain frame: %v", err)
				return
			}
			done.Add(1)
		}()
	}
	waitQueued(sched, n)

	drained := make(chan error, 1)
	go func() { drained <- sched.Drain(context.Background()) }()
	for !sched.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := sched.Begin(req); !errors.Is(err, ErrDraining) {
		t.Errorf("Begin during drain: %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with %d frames still queued", err, sched.QueuedFrames())
	default:
	}
	<-sched.slots // open the turnstile; the backlog finishes
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if done.Load() != n {
		t.Errorf("drain completed %d/%d queued frames", done.Load(), n)
	}
	if !sched.Stats().Draining {
		t.Error("stats must report draining")
	}
}

// TestSchedulerDrainTimeout: a Drain whose context expires returns the
// context error instead of hanging on a plugged queue.
func TestSchedulerDrainTimeout(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{})
	defer sched.Close()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}
	sched.slots <- struct{}{}
	go sched.Submit(context.Background(), req, frame)
	waitQueued(sched, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := sched.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain with plugged queue: %v, want DeadlineExceeded", err)
	}
	<-sched.slots
}

// TestSchedulerAdmitsInteractiveWhenBulkLaneFull: MaxQueue bounds each
// lane on its own. With the bulk lane full, an interactive frame is still
// admitted, one more bulk frame is refused, and once the turnstile opens
// the interactive frame dispatches before any bulk frame, one frame per
// dispatch. The clock stands still while the frames queue and ticks on
// every read after, so each frame's queue wait is its dispatch position.
func TestSchedulerAdmitsInteractiveWhenBulkLaneFull(t *testing.T) {
	const maxQueue = 4
	var mu sync.Mutex
	clock, tick := time.Unix(1000, 0), time.Duration(0)
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(tick)
		return clock
	}
	sched := NewScheduler(SchedulerConfig{MaxQueue: maxQueue, Now: now})
	defer sched.Close()
	req := tinyRequest()
	bulkReq := req
	bulkReq.Lane = LaneBulk
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	sched.slots <- struct{}{} // plug the turnstile: everything queues
	var bulk []*PendingFrame
	for i := 0; i < maxQueue; i++ {
		p, err := sched.Begin(bulkReq)
		if err != nil {
			t.Fatalf("bulk frame %d: %v", i, err)
		}
		bulk = append(bulk, p)
	}
	live, err := sched.Begin(req)
	if err != nil {
		t.Fatalf("interactive frame next to a full bulk lane: %v", err)
	}
	if _, err := sched.Begin(bulkReq); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("bulk frame beyond MaxQueue: %v, want ErrOverloaded", err)
	}
	for _, p := range bulk {
		p.CompleteBuffers(frame)
	}
	live.CompleteBuffers(frame)

	mu.Lock()
	tick = time.Millisecond
	mu.Unlock()
	<-sched.slots // open the turnstile
	if _, err := live.Wait(context.Background()); err != nil {
		t.Fatalf("interactive frame: %v", err)
	}
	for i, p := range bulk {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatalf("bulk frame %d: %v", i, err)
		}
	}
	st := sched.Stats()
	if st.Overloads != 1 {
		t.Errorf("overloads = %d, want 1 (the bulk frame beyond MaxQueue)", st.Overloads)
	}
	if st.Batches != maxQueue+1 || st.Fused != maxQueue+1 {
		t.Errorf("batches = %d, batched frames = %d, want %d dispatches of one frame each",
			st.Batches, st.Fused, maxQueue+1)
	}
	live1, bulk1 := st.Lanes["interactive"], st.Lanes["bulk"]
	if live1.Dispatched != 1 || bulk1.Dispatched != maxQueue {
		t.Fatalf("dispatched interactive=%d bulk=%d, want 1 and %d", live1.Dispatched, bulk1.Dispatched, maxQueue)
	}
	bulkWaits := sched.lanes[LaneBulk].waits[:maxQueue]
	if first := slices.Min(bulkWaits); live1.WaitP50Ms >= first {
		t.Errorf("interactive wait %.0f ms ≥ first bulk wait %.0f ms: a bulk frame dispatched first",
			live1.WaitP50Ms, first)
	}
}

// TestRetryAfterScalesWithBacklog: the Retry-After hint derives from queue
// depth, not a constant — a deep backlog on a cold scheduler quotes its
// assumed drain time, an idle one quotes the floor.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64})
	defer sched.Close()
	if got := sched.RetryAfterSeconds(); got != 1 {
		t.Errorf("idle cold scheduler Retry-After = %d, want 1", got)
	}
	req := tinyRequest()
	req.Lane = LaneBulk
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}
	sched.slots <- struct{}{}
	var wg sync.WaitGroup
	const n = 20
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched.Submit(context.Background(), req, frame)
		}()
	}
	waitQueued(sched, n)
	// Cold scheduler assumes 4 frames/s: 21 frames ahead → ceil(21/4) = 6.
	if got := sched.RetryAfterSeconds(); got != 6 {
		t.Errorf("Retry-After with %d queued = %d, want 6", n, got)
	}
	if got := sched.Stats().RetryAfterSec; got != 6 {
		t.Errorf("stats retry_after_sec = %d, want 6", got)
	}
	<-sched.slots
	wg.Wait()
	// Once measured, an empty queue quotes the floor again.
	if got := sched.RetryAfterSeconds(); got != 1 {
		t.Errorf("post-drain Retry-After = %d, want 1", got)
	}
}

// TestServerShutdownSurface: Shutdown drains the scheduler and flips
// /v1/healthz to 503 with drain progress; a draining scheduler's
// /v1/beamform refusal, with its draining marker and adaptive Retry-After,
// is the refusal table's "draining" row — together everything a router
// needs to deroute the node.
func TestServerShutdownSurface(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv := ts.Config.Handler.(*Server)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown of an idle server: %v", err)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Queued int    `json:"queued"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("healthz during drain: %d %+v, want 503 draining", resp.StatusCode, health)
	}
	if !sched.Draining() {
		t.Error("server Shutdown did not drain the scheduler")
	}
}

// TestStreamDrainSendsGoAway: a cine stream on a server that starts
// draining gets every already-submitted compound answered, then an
// in-band GOAWAY — and the close is counted as a drain, not an error.
func TestStreamDrainSendsGoAway(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv := ts.Config.Handler.(*Server)
	spec := servedSpec()
	body := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{tinyFrame(t, spec)}, 0)

	conn := helloStream(t, srv, tinyQuery(nil))
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadVolume(conn, 0); err != nil {
		t.Fatalf("pre-drain compound: %v", err)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The idle stream notices the drain within its poll interval and says
	// goodbye in-band.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, gerr := wire.ReadVolume(conn, 0)
	if !wire.IsGoAway(gerr) {
		t.Fatalf("post-drain read: %v, want GOAWAY", gerr)
	}
	waitStreamCloses(t, sched, func(ws WireStats) bool { return ws.StreamClosesDrain == 1 })

	// A fresh connection is refused at the hello.
	conn2 := dialStream(t, srv)
	if err := wire.WriteHello(conn2, tinyQuery(nil)); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn2); err == nil {
		t.Error("draining server accepted a new stream hello")
	}
}

// waitQueued polls until n frames sit in sched's queues, or for 5 s: a
// queue that never fills then fails the caller's checks, not the binary.
func waitQueued(sched *Scheduler, n int) {
	for deadline := time.Now().Add(5 * time.Second); sched.Stats().Queued != n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// waitStreamCloses polls the wire stats until the close counters satisfy
// ok — the close is recorded after the reply, so tests must not race it.
func waitStreamCloses(t *testing.T, sched *Scheduler, ok func(WireStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(sched.Stats().Wire) {
		if time.Now().After(deadline) {
			t.Fatalf("stream close counters never settled: %+v", sched.Stats().Wire)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamTornFrameReconnect: a stream that dies mid-chunk leaves no
// corrupt state behind — the close is counted as client-gone, and a
// reconnect pushing the same compound gets a volume bit-identical to an
// untouched connection's.
func TestStreamTornFrameReconnect(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv := ts.Config.Handler.(*Server)
	spec := servedSpec()
	body := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{tinyFrame(t, spec)}, 8192)

	// Reference: one clean connection, one compound.
	addr := serveStream(t, srv)
	ref := mustStreamVolume(t, addr, tinyQuery(nil), body)

	// Torn upload: half a compound, then the connection dies.
	conn := helloStream(t, srv, tinyQuery(nil))
	if _, err := conn.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitStreamCloses(t, sched, func(ws WireStats) bool { return ws.StreamClosesClientGone >= 1 })

	// Reconnect: the same compound beamforms to the same bytes.
	got := mustStreamVolume(t, addr, tinyQuery(nil), body)
	if len(got) != len(ref) {
		t.Fatalf("post-reconnect volume has %d points, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("post-reconnect volume differs at %d: torn upload corrupted state", i)
		}
	}
	// Both bracketing connections closed at a compound boundary.
	waitStreamCloses(t, sched, func(ws WireStats) bool { return ws.StreamClosesClean == 2 })
}
