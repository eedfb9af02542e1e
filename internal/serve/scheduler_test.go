package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ultrabeam/internal/rf"
)

// TestSchedulerLanePreemption: an interactive frame enqueued behind a full
// cine backlog must dispatch ahead of it — the lane mechanism, not FIFO
// position, decides order. The test plugs the core-slot turnstile so the
// whole backlog is provably queued before the interactive frame arrives,
// then opens it and watches the completion sequence.
func TestSchedulerLanePreemption(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64})
	defer sched.Close()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	sched.slots <- struct{}{} // hold the only core slot: nothing dispatches

	const cine = 6
	var seq atomic.Int64
	var wg sync.WaitGroup
	bulkReq := req
	bulkReq.Lane = LaneBulk
	for i := 0; i < cine; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sched.Submit(context.Background(), bulkReq, frame); err != nil {
				t.Errorf("bulk: %v", err)
			}
			seq.Add(1)
		}()
	}
	waitQueued(sched, cine)
	var interactiveSeq atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sched.Submit(context.Background(), req, frame); err != nil {
			t.Errorf("interactive: %v", err)
		}
		interactiveSeq.Store(seq.Add(1))
	}()
	waitQueued(sched, cine+1)
	<-sched.slots // open the turnstile
	wg.Wait()
	// The interactive frame entered last but must dispatch first (its own
	// dispatch). Allow one completion of slack for goroutine wakeup
	// order; a FIFO would finish it 7th.
	if got := interactiveSeq.Load(); got > 2 {
		t.Errorf("interactive frame completed %d-th of %d — the cine backlog was not preempted", got, cine+1)
	}
}

// TestSchedulerFairnessAcrossGeometries: with one core slot and two
// geometries under bulk load, the turnstile must interleave their frames
// — neither geometry's backlog runs to completion before the other starts.
// As in the preemption test the turnstile is plugged until both backlogs are
// provably queued: a tiny geometry's eight frames otherwise finish before
// the other geometry's goroutines have been scheduled at all.
func TestSchedulerFairnessAcrossGeometries(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64})
	defer sched.Close()
	reqA := tinyRequest()
	reqA.Lane = LaneBulk
	reqB := reqA
	reqB.Spec.FocalDepth++ // distinct fingerprint
	frameA := [][]rf.EchoBuffer{tinyFrame(t, reqA.Spec)}
	frameB := [][]rf.EchoBuffer{tinyFrame(t, reqB.Spec)}

	const perGeom = 8
	var seq atomic.Int64
	order := make(map[string][]int64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	submit := func(name string, req SessionRequest, frame [][]rf.EchoBuffer) {
		defer wg.Done()
		if _, err := sched.Submit(context.Background(), req, frame); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		n := seq.Add(1)
		mu.Lock()
		order[name] = append(order[name], n)
		mu.Unlock()
	}
	sched.slots <- struct{}{} // hold the only core slot: nothing dispatches
	for i := 0; i < perGeom; i++ {
		wg.Add(2)
		go submit("A", reqA, frameA)
		go submit("B", reqB, frameB)
	}
	// Both backlogs queued, both sessions built and both dispatch loops
	// spawned: a build still running when the turnstile opens would let
	// the other geometry drain alone.
	settled := func() bool {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		n := 0
		for _, g := range sched.geoms {
			if g.queued == perGeom && !g.building && g.running {
				n++
			}
		}
		return n == 2
	}
	for !settled() {
		time.Sleep(time.Millisecond)
	}
	<-sched.slots // open the turnstile
	wg.Wait()
	a, b := order["A"], order["B"]
	if len(a) != perGeom || len(b) != perGeom || slices.Min(a) > slices.Max(b) || slices.Min(b) > slices.Max(a) {
		t.Errorf("geometries did not interleave: A=%v B=%v", a, b)
	}
}

// TestSchedulerOverloadAndClose: a bounded queue refuses excess frames with
// ErrOverloaded, and Close fails queued work with ErrClosed and rejects
// later submits.
func TestSchedulerOverloadAndClose(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 1})
	req := tinyRequest()
	req.Lane = LaneBulk
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	var overloads, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sched.Submit(context.Background(), req, frame)
			switch {
			case errors.Is(err, ErrOverloaded):
				overloads.Add(1)
			case err == nil:
				done.Add(1)
			default:
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if overloads.Load() == 0 || done.Load() == 0 {
		t.Errorf("want both refusals and completions, got %d overloads / %d done",
			overloads.Load(), done.Load())
	}
	if st := sched.Stats(); st.Overloads != overloads.Load() {
		t.Errorf("stats overloads = %d, counted %d", st.Overloads, overloads.Load())
	}
	sched.Close()
	sched.Close() // idempotent
	if _, err := sched.Submit(context.Background(), req, frame); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestSchedulerCancelledSubmit: a queued frame whose context cancels leaves
// the queue and returns the context error.
func TestSchedulerCancelledSubmit(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64})
	defer sched.Close()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sched.Submit(ctx, req, frame); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submit: %v, want context.Canceled", err)
	}
	// The scheduler stays usable.
	if _, err := sched.Submit(context.Background(), req, frame); err != nil {
		t.Errorf("submit after cancellation: %v", err)
	}
}

// TestSchedulerWaitCancelledAfterRun: a context cancelled before Wait wins
// over a frame that has already run — both are ready when Wait selects, and
// a random pick would hand back the volume with a nil error.
func TestSchedulerWaitCancelledAfterRun(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64})
	defer sched.Close()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range 64 {
		p, err := sched.Begin(req)
		if err != nil {
			t.Fatal(err)
		}
		p.CompleteBuffers(frame)
		<-p.job.done
		if _, err := p.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("wait %d on a run frame with a cancelled context: %v, want context.Canceled", i, err)
		}
	}
}

// TestSchedulerTTLSweepAndRebuild: an idle geometry past its TTL is evicted
// — hot session closed, store dropped — and the next submit of the same
// fingerprint rebuilds from cold with identical results.
func TestSchedulerTTLSweepAndRebuild(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	sched := NewScheduler(SchedulerConfig{IdleTTL: time.Minute, Now: now})
	defer sched.Close()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	v1, err := sched.Submit(context.Background(), req, frame)
	if err != nil {
		t.Fatal(err)
	}
	sched.Sweep(now()) // not idle long enough
	if st := sched.Stats(); st.GeometriesLive != 1 || st.Evictions != 0 {
		t.Fatalf("premature eviction: %+v", st)
	}
	mu.Lock()
	clock = clock.Add(2 * time.Minute)
	mu.Unlock()
	sched.Sweep(now())
	if st := sched.Stats(); st.GeometriesLive != 0 || st.Evictions != 1 {
		t.Fatalf("idle geometry not evicted: live=%d evictions=%d", st.GeometriesLive, st.Evictions)
	}
	v2, err := sched.Submit(context.Background(), req, frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1.Data {
		if v1.Data[i] != v2.Data[i] {
			t.Fatalf("post-eviction rebuild differs at %d", i)
		}
	}
}

// TestSchedulerGeometryCapEvictsColdest: a cold geometry beyond
// MaxGeometries evicts the least-recently-used idle one instead of
// refusing.
func TestSchedulerGeometryCapEvictsColdest(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxGeometries: 1})
	defer sched.Close()
	reqA := tinyRequest()
	reqB := tinyRequest()
	reqB.Spec.FocalDepth++
	if _, err := sched.Submit(context.Background(), reqA, [][]rf.EchoBuffer{tinyFrame(t, reqA.Spec)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(context.Background(), reqB, [][]rf.EchoBuffer{tinyFrame(t, reqB.Spec)}); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats()
	if st.GeometriesLive != 1 || st.Evictions != 1 {
		t.Errorf("cap eviction: live=%d evictions=%d, want 1/1", st.GeometriesLive, st.Evictions)
	}
}

// TestJanitorEvictsIdleGeometry: the janitor's own ticker sweeps — with
// no direct Sweep call, a geometry idle past IdleTTL on the scheduler's
// clock is evicted, and one still inside it is not.
func TestJanitorEvictsIdleGeometry(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(1000, 0)
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	sched := NewScheduler(SchedulerConfig{IdleTTL: 20 * time.Millisecond, Now: now})
	defer sched.Close()
	req := tinyRequest()
	if _, err := sched.Submit(context.Background(), req, [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // several ticks; the clock stands still
	if st := sched.Stats(); st.GeometriesLive != 1 || st.Evictions != 0 {
		t.Fatalf("janitor evicted a geometry idle for 0s of a 20ms TTL: %+v", st)
	}
	mu.Lock()
	clock = clock.Add(time.Minute)
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for sched.Stats().GeometriesLive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the idle geometry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := sched.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestLaneParsingAndFingerprint: lane parsing accepts the wire names, and
// the lane never leaks into the fingerprint — interactive and bulk traffic
// of one probe must share a warm geometry.
func TestLaneParsingAndFingerprint(t *testing.T) {
	for name, want := range map[string]Lane{
		"": LaneInteractive, "interactive": LaneInteractive,
		"bulk": LaneBulk, "cine": LaneBulk, "BULK": LaneBulk,
	} {
		got, err := ParseLane(name)
		if err != nil || got != want {
			t.Errorf("ParseLane(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseLane("express"); err == nil {
		t.Error("unknown lane must error")
	}
	a := tinyRequest()
	b := tinyRequest()
	b.Lane = LaneBulk
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("lane must not change the fingerprint")
	}
	if LaneInteractive.String() != "interactive" || LaneBulk.String() != "bulk" {
		t.Error("lane names changed — they are wire format")
	}
}

// TestSchedulerLaneQueueReleasesJobs: a lane queue shrinks in place, so
// every slot a dispatch or a cancel vacates must be zeroed — a stale
// pointer in the backing array keeps a finished job's decoded planes and
// volume reachable until the slot happens to be overwritten. Five frames
// reserve slots (sizing the array), one in the middle is cancelled while
// queued, one aborts, the rest dispatch; afterwards no slot up to cap
// holds a job.
func TestSchedulerLaneQueueReleasesJobs(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64})
	defer sched.Close()
	req := tinyRequest()
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}
	pending := make([]*PendingFrame, 5)
	for i := range pending {
		p, err := sched.Begin(req)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pending[2].Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: %v, want context.Canceled", err)
	}
	pending[0].Abort()
	for _, i := range []int{1, 3, 4} {
		pending[i].CompleteBuffers(frame)
	}
	for _, i := range []int{1, 3, 4} {
		if _, err := pending[i].Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	g := pending[0].g
	if g.queued != 0 {
		t.Fatalf("%d frames still queued", g.queued)
	}
	for lane, q := range g.lanes {
		for i, j := range q[:cap(q)] {
			if j != nil {
				t.Errorf("lane %d slot %d of %d still holds a job after its queue emptied", lane, i, cap(q))
			}
		}
	}
}
