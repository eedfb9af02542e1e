package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
)

// tinyBudgetHalf returns a byte budget retaining about half the spec's
// (transmit, nappe) block space in a narrow store — the partial-residency
// regime where batching actually amortizes regeneration.
func tinyBudgetHalf(s core.SystemSpec, transmits int) int64 {
	vol := s.Volume()
	blockLen := int64(vol.Theta.N) * int64(vol.Phi.N) * int64(s.ElemX) * int64(s.ElemY)
	return blockLen * 2 * int64(vol.Depth.N) * int64(transmits) / 2
}

// scaledTinyFrames derives n distinct frames from one synthesized echo set.
func scaledTinyFrames(t testing.TB, s core.SystemSpec, n int) [][]rf.EchoBuffer {
	t.Helper()
	base := tinyFrame(t, s)
	frames := make([][]rf.EchoBuffer, n)
	for k := 0; k < n; k++ {
		scale := 1 + 0.2*float64(k)
		frame := make([]rf.EchoBuffer, len(base))
		for d, b := range base {
			samples := make([]float64, len(b.Samples))
			for i, v := range b.Samples {
				samples[i] = v * scale
			}
			frame[d] = rf.EchoBuffer{Samples: samples}
		}
		frames[k] = frame
	}
	return frames
}

// TestSchedulerBitIdentityEveryPrecision is the scheduling half of the
// batching invariance contract (run under -race in CI): volumes coming out
// of the scheduler — built from concurrent submissions across both lanes,
// fused into batches, over a half-resident delay store — must be
// bit-identical to a solo session beamforming the same frames one at a
// time.
func TestSchedulerBitIdentityEveryPrecision(t *testing.T) {
	for _, prec := range []beamform.Precision{
		beamform.PrecisionFloat64, beamform.PrecisionWide, beamform.PrecisionFloat32,
	} {
		req := tinyRequest()
		req.Config.Precision = prec
		if prec != beamform.PrecisionWide { // wide store only pairs with wide precision
			req.Config.CacheBudget = tinyBudgetHalf(req.Spec, 1)
		}
		frames := scaledTinyFrames(t, req.Spec, 6)

		// Solo reference, one frame at a time.
		sess, cache, err := req.Spec.NewSessionConfig(req.Config, req.Arch.NewProvider(req.Spec))
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*beamform.Volume, len(frames))
		for k, f := range frames {
			v, err := sess.Beamform(f)
			if err != nil {
				t.Fatal(err)
			}
			refs[k] = v
		}
		destroySession(sess, cache)

		sched := NewScheduler(SchedulerConfig{MaxBatch: 3})
		var wg sync.WaitGroup
		outs := make([]*beamform.Volume, len(frames))
		errs := make([]error, len(frames))
		for k, f := range frames {
			wg.Add(1)
			go func(k int, f []rf.EchoBuffer) {
				defer wg.Done()
				r := req
				if k%2 == 1 {
					r.Lane = LaneBulk
				}
				outs[k], errs[k] = sched.Submit(context.Background(), r, [][]rf.EchoBuffer{f})
			}(k, f)
		}
		wg.Wait()
		for k := range frames {
			if errs[k] != nil {
				t.Fatalf("%v frame %d: %v", prec, k, errs[k])
			}
			for i := range refs[k].Data {
				if refs[k].Data[i] != outs[k].Data[i] {
					t.Fatalf("%v frame %d: scheduled volume differs from solo at %d", prec, k, i)
				}
			}
		}
		st := sched.Stats()
		if st.Completed != int64(len(frames)) || st.Fused != int64(len(frames)) {
			t.Errorf("%v: stats completed=%d fused=%d, want %d", prec, st.Completed, st.Fused, len(frames))
		}
		sched.Close()
	}
}

// TestSchedulerLanePreemption: an interactive frame enqueued behind a full
// cine backlog must dispatch ahead of it — the lane mechanism, not FIFO
// position, decides order. The test plugs the core-slot turnstile so the
// whole backlog is provably queued before the interactive frame arrives,
// then opens it and watches the completion sequence.
func TestSchedulerLanePreemption(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxBatch: 2, MaxQueue: 64, CoreSlots: 1})
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
	for sched.Stats().Queued != cine {
		time.Sleep(time.Millisecond)
	}
	var interactiveSeq atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sched.Submit(context.Background(), req, frame); err != nil {
			t.Errorf("interactive: %v", err)
		}
		interactiveSeq.Store(seq.Add(1))
	}()
	for sched.Stats().Queued != cine+1 {
		time.Sleep(time.Millisecond)
	}
	<-sched.slots // open the turnstile
	wg.Wait()
	// The interactive frame entered last but must dispatch first (its own
	// batch of one). Allow one completion of slack for goroutine wakeup
	// order; a FIFO would finish it 7th.
	if got := interactiveSeq.Load(); got > 2 {
		t.Errorf("interactive frame completed %d-th of %d — the cine backlog was not preempted", got, cine+1)
	}
}

// TestSchedulerFairnessAcrossGeometries: with one core slot and two
// geometries under bulk load, the turnstile must interleave their batches
// — neither geometry's backlog runs to completion before the other starts.
// As in the preemption test the turnstile is plugged until both backlogs are
// provably queued: a tiny geometry's eight frames otherwise finish before
// the other geometry's goroutines have been scheduled at all.
func TestSchedulerFairnessAcrossGeometries(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxBatch: 2, CoreSlots: 1, MaxQueue: 64})
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
	for sched.Stats().Queued != 2*perGeom {
		time.Sleep(time.Millisecond)
	}
	<-sched.slots // open the turnstile
	wg.Wait()
	last := func(name string) int64 {
		max := int64(0)
		for _, n := range order[name] {
			if n > max {
				max = n
			}
		}
		return max
	}
	first := func(name string) int64 {
		min := seq.Load() + 1
		for _, n := range order[name] {
			if n < min {
				min = n
			}
		}
		return min
	}
	if first("A") > last("B") || first("B") > last("A") {
		t.Errorf("geometries did not interleave: A=[%d,%d] B=[%d,%d]",
			first("A"), last("A"), first("B"), last("B"))
	}
}

// TestSchedulerBatchesBacklog: frames queued while the geometry builds must
// dispatch as fused batches, visible in the batch-size counters. The build's
// cache fills are stretched to a millisecond each so that the backlog does
// not hang on how fast this host fills ten tiny nappes.
func TestSchedulerBatchesBacklog(t *testing.T) {
	if err := faultpoint.Activate("delaycache.fill=every:1:sleep=1ms"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.Deactivate()
	sched := NewScheduler(SchedulerConfig{MaxBatch: 4, MaxQueue: 64})
	defer sched.Close()
	req := tinyRequest()
	req.Lane = LaneBulk
	frame := [][]rf.EchoBuffer{tinyFrame(t, req.Spec)}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sched.Submit(context.Background(), req, frame); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	st := sched.Stats()
	if st.Fused != 8 {
		t.Fatalf("fused %d frames, want 8", st.Fused)
	}
	if st.Batches >= 8 {
		t.Errorf("8 frames dispatched as %d batches — no fusion happened", st.Batches)
	}
	fusedViaCounts := int64(0)
	for k, c := range st.BatchSizeCounts {
		fusedViaCounts += c * int64(k+1)
	}
	if fusedViaCounts != st.Fused {
		t.Errorf("batch-size counters account for %d frames, fused=%d", fusedViaCounts, st.Fused)
	}
	if lanes := st.Lanes["bulk"]; lanes.Dispatched != 8 {
		t.Errorf("bulk lane dispatched = %d, want 8", lanes.Dispatched)
	}
}

// TestSchedulerMixedShapesSplitBatches: frames of different echo windows
// queued together must all succeed — the shape key splits them into
// separate batches instead of poisoning one fused dispatch.
func TestSchedulerMixedShapesSplitBatches(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxBatch: 8, MaxQueue: 64})
	defer sched.Close()
	req := tinyRequest()
	req.Lane = LaneBulk
	long := tinyFrame(t, req.Spec)
	short := make([]rf.EchoBuffer, len(long))
	for d, b := range long {
		short[d] = rf.EchoBuffer{Samples: b.Samples[:len(b.Samples)-9]}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		bufs := long
		if i%2 == 1 {
			bufs = short
		}
		wg.Add(1)
		go func(bufs []rf.EchoBuffer) {
			defer wg.Done()
			if _, err := sched.Submit(context.Background(), req, [][]rf.EchoBuffer{bufs}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(bufs)
	}
	wg.Wait()
	if st := sched.Stats(); st.Completed != 8 {
		t.Errorf("completed = %d, want 8", st.Completed)
	}
}

// TestSchedulerOverloadAndClose: a bounded queue refuses excess frames with
// ErrOverloaded, and Close fails queued work with ErrClosed and rejects
// later submits.
func TestSchedulerOverloadAndClose(t *testing.T) {
	sched := NewScheduler(SchedulerConfig{MaxQueue: 1, MaxBatch: 1})
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

// TestSchedulerTTLSweepAndRebuild: an idle geometry past its TTL is evicted
// — hot session closed, store dropped — and the next submit of the same
// fingerprint rebuilds from cold with identical results.
func TestSchedulerTTLSweepAndRebuild(t *testing.T) {
	clock := time.Unix(1000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	sched := NewScheduler(SchedulerConfig{IdleTTL: time.Minute, Now: now,
		Jitter: func(time.Duration) time.Duration { return 0 }})
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

// TestSchedulerPlanWeights: the compound-aware budget plan reaches the
// geometry's delay store — skewed per-transmit cadence reshapes residency
// quotas (visible in stats) — without changing beamformed bytes.
func TestSchedulerPlanWeights(t *testing.T) {
	req := tinyRequest()
	req.Config.Transmits = delayAxialSet(2, req.Spec)
	req.Config.CacheBudget = tinyBudgetHalf(req.Spec, 2)
	frames := scaledTinyFrames(t, req.Spec, 2)
	tx := [][]rf.EchoBuffer{frames[0], frames[1]}

	// Solo reference under the default uniform plan.
	sess, cache, err := req.Spec.NewSessionConfig(req.Config, req.Arch.NewProvider(req.Spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sess.BeamformCompound(tx)
	if err != nil {
		t.Fatal(err)
	}
	destroySession(sess, cache)

	sched := NewScheduler(SchedulerConfig{
		PlanWeights: func(SessionRequest) []float64 { return []float64{3, 1} },
	})
	defer sched.Close()
	got, err := sched.Submit(context.Background(), req, tx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if ref.Data[i] != got.Data[i] {
			t.Fatalf("planned store changes beamformed bytes at %d", i)
		}
	}
	st := sched.Stats()
	if len(st.Geometries) != 1 {
		t.Fatalf("geometries: %+v", st.Geometries)
	}
	resident := 0
	for _, q := range st.Geometries[0].Plan {
		resident += q
	}
	want := delaycache.PlanWeighted(resident, req.Spec.FocalDepth, []float64{3, 1})
	if len(st.Geometries[0].Plan) != 2 || st.Geometries[0].Plan[0] != want[0] {
		t.Errorf("installed plan %v, want %v", st.Geometries[0].Plan, want)
	}
	if st.Geometries[0].Plan[0] <= st.Geometries[0].Plan[1] {
		t.Errorf("skewed weights did not skew the plan: %v", st.Geometries[0].Plan)
	}
}

// TestJanitorJitterInjectable: both the pool's and the scheduler's janitors
// draw their start delay through the injectable jitter hook (satellite:
// desynchronized periodic sweeps, modelled on random start delays).
func TestJanitorJitterInjectable(t *testing.T) {
	calls := make(chan time.Duration, 2)
	jitter := func(interval time.Duration) time.Duration {
		select {
		case calls <- interval:
		default:
		}
		return 0
	}
	p := NewPool(PoolConfig{IdleTTL: time.Hour, Jitter: jitter})
	select {
	case got := <-calls:
		if got != 30*time.Minute {
			t.Errorf("pool jitter interval = %v, want 30m", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool janitor never drew its jitter")
	}
	p.Close()
	s := NewScheduler(SchedulerConfig{IdleTTL: time.Hour, Jitter: jitter})
	select {
	case got := <-calls:
		if got != 30*time.Minute {
			t.Errorf("scheduler jitter interval = %v, want 30m", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler janitor never drew its jitter")
	}
	s.Close()
	if d := startJitter(time.Minute); d < 0 || d >= time.Minute {
		t.Errorf("default jitter %v outside [0, 1m)", d)
	}
	if startJitter(0) != 0 {
		t.Error("zero interval must draw zero jitter")
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
	sched := NewScheduler(SchedulerConfig{MaxQueue: 64, MaxBatch: 2})
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
