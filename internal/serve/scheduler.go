// Scheduler: the frame scheduler, the serving stack's one concurrency
// model. Checking a session out per connection would make N worker pools
// fight for the same cores. The scheduler keeps one hot beamform.Session
// per warm geometry, a per-geometry frame queue in front of it, and a
// dispatch loop that drains the queue one frame per Session.Run — the
// ffdas lesson (keep one reconstruction pipeline saturated and feed it a
// queue) applied to the CPU datapath. Delay generation is amortized across
// frames by the geometry's delay store, not by the dispatch.
//
// Two priority lanes ride the same queue: every interactive frame of a
// geometry dispatches before any bulk frame, so a live probe view preempts
// a cine stream at the next frame boundary. Each lane has its own
// MaxQueue bound, so a bulk backlog can never refuse an interactive frame.
// A one-token turnstile time-slices the core budget across geometries: a
// dispatch loop holds the token per frame, so one geometry's bulk backlog
// cannot starve another geometry (frame-boundary round-robin through the
// token queue). Sessions already parallelize internally across cores, so
// one geometry at a time is the whole budget.
//
// Results are bit-identical to beamforming each frame alone: the
// scheduler only orders frames, and a delay block reads the same bytes
// whether it is resident or regenerated.
package serve

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
)

// ErrOverloaded refuses a frame when its geometry's queue is full, or a new
// geometry when every warm one is busy — the typed backpressure signal the
// transports map to 503 / StatusOverloaded.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrClosed fails frames submitted to, or still queued in, a closed
// scheduler.
var ErrClosed = errors.New("serve: scheduler closed")

// ErrDraining refuses new frames while the scheduler finishes its queues
// for shutdown. Clients should retry against another node.
var ErrDraining = errors.New("serve: draining for shutdown")

// ErrExpired fails a frame whose client-supplied deadline passed while it
// sat in queue — the frame was dropped before burning a core slot.
var ErrExpired = errors.New("serve: frame deadline expired in queue")

// Injection points for the chaos harness (inert single-load checks unless
// a faultpoint schedule is activated).
var (
	buildFault    = faultpoint.New("serve.session.build")
	dispatchFault = faultpoint.New("serve.dispatch")
)

// SchedulerConfig sizes a Scheduler.
type SchedulerConfig struct {
	// MaxGeometries caps warm geometries (each holds one hot session and
	// one delay store). A new geometry beyond the cap evicts the coldest
	// idle one, or is refused with ErrOverloaded when all are busy. <=0
	// defaults to 4.
	MaxGeometries int
	// MaxQueue bounds queued frames per geometry and lane; beyond it Begin
	// refuses that lane with ErrOverloaded, so a geometry holds at most
	// 2×MaxQueue frames and a full bulk lane never refuses an interactive
	// frame. <=0 defaults to 64.
	MaxQueue int
	// IdleTTL evicts a geometry — its hot session and delay store — once
	// nothing has used it for this long. 0 keeps geometries forever.
	IdleTTL time.Duration
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
}

// Scheduler owns one hot session per warm geometry and schedules decoded
// frames onto them. Submit enqueues a frame and blocks until its volume is
// beamformed (or ctx cancels); the per-geometry dispatch loops do the
// beamforming. Close drains and tears everything down.
type Scheduler struct {
	cfg SchedulerConfig

	mu       sync.Mutex
	geoms    map[string]*schedGeom
	closed   bool
	draining bool

	// slots is the core-budget turnstile, one token wide: a dispatch loop
	// holds it for the duration of one frame. Waiting loops queue on the channel,
	// which hands tokens out approximately FIFO — the time-slicing
	// fairness mechanism.
	slots chan struct{}

	wg          sync.WaitGroup // dispatch loops + geometry builders
	janitorStop chan struct{}
	janitorDone chan struct{}

	submits    atomic.Int64
	completed  atomic.Int64
	overloads  atomic.Int64
	evictions  atomic.Int64
	dispatched atomic.Int64 // frames run through Session.Run
	expired    atomic.Int64 // frames dropped in queue past their deadline
	dispatchNs atomic.Int64 // wall time spent inside dispatch (rate source)

	lanes       [numLanes]laneRecorder
	laneExpired [numLanes]atomic.Int64
	wire        wireRecorder
}

// schedGeom is one warm geometry: its hot session, store attachment and
// two-lane frame queue.
type schedGeom struct {
	fp  string
	req SessionRequest

	sess  *beamform.Session
	cache *delaycache.Cache

	lanes    [numLanes][]*frameJob
	queued   int
	building bool // session under construction; jobs queue meanwhile
	running  bool // dispatch loop live
	lastUsed time.Time

	// warmOnBuild makes build() prefill the store of a handed-off geometry:
	// set only at creation (Prewarm), read by build without the lock.
	warmOnBuild bool
}

// frameJob is one submitted frame: a decoded beamform.Frame in, volume
// out. A job enters its lane queue the moment Begin reserves the slot —
// possibly before its upload has finished arriving — and becomes
// dispatchable only when ready flips (Complete*), so decode overlaps the
// backlog without a stalled upload ever blocking the lane.
type frameJob struct {
	frame    beamform.Frame
	lane     Lane
	enq      time.Time
	deadline time.Time // zero: no client deadline; else drop from queue past it

	ready   bool      // payload fully decoded; dispatchable
	readyAt time.Time // lane wait is measured from here, not enq:
	// queue time under the scheduler's control, not the client's uplink

	out  *beamform.Volume
	err  error
	done chan struct{}
}

// NewScheduler builds a scheduler and, when cfg.IdleTTL > 0, starts the
// janitor. Close the scheduler to stop it.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.MaxGeometries <= 0 {
		cfg.MaxGeometries = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Scheduler{
		cfg:   cfg,
		geoms: map[string]*schedGeom{},
		slots: make(chan struct{}, 1),
	}
	if cfg.IdleTTL > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

// janitor sweeps at half the TTL, so an idle geometry lives at most ~1.5×
// IdleTTL. Eviction is gated on each geometry's own lastUsed, so when the
// sweeps happen to run moves an eviction by less than TTL/2.
func (s *Scheduler) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.cfg.IdleTTL / 2)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.Sweep(s.cfg.Now())
		}
	}
}

// PendingFrame is a queue slot reserved by Begin before the frame's
// payload exists server-side: the streaming-ingest handle. Exactly one
// completion (CompleteBuffers or CompletePlanesI16) or Abort must follow,
// then Wait collects the volume. The slot holds its lane position while the upload
// decodes, and the first frame of a cold geometry starts the session build
// immediately — so by the time a large upload finishes arriving, the
// session is warm and the backlog ahead of it has drained.
type PendingFrame struct {
	s   *Scheduler
	g   *schedGeom
	job *frameJob
}

// Begin reserves a queue slot for one frame of req's geometry on req.Lane
// and triggers the session build for a cold geometry — before the frame's
// payload has arrived. A full lane (MaxQueue frames of this geometry on
// req.Lane; the other lane does not count), or a cold geometry beyond
// MaxGeometries with no evictable peer, refuses with ErrOverloaded
// (the typed signal the HTTP layer maps to 503); a draining scheduler
// refuses with ErrDraining. A req.Deadline > 0 stamps the job: if the
// deadline passes while the frame is still queued it is dropped with
// ErrExpired instead of burning a core slot on a client that gave up.
func (s *Scheduler) Begin(req SessionRequest) (*PendingFrame, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	lane := req.Lane
	if lane < 0 || lane >= numLanes {
		lane = LaneInteractive
	}
	job := &frameJob{lane: lane, enq: s.cfg.Now(), done: make(chan struct{})}
	if req.Deadline > 0 {
		job.deadline = job.enq.Add(req.Deadline)
	}
	fp := req.Fingerprint()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.submits.Add(1)
	g := s.geoms[fp]
	if g == nil {
		if len(s.geoms) >= s.cfg.MaxGeometries && !s.evictColdestLocked() {
			s.overloads.Add(1)
			s.mu.Unlock()
			return nil, ErrOverloaded
		}
		g = &schedGeom{fp: fp, req: req, building: true, lastUsed: s.cfg.Now()}
		s.geoms[fp] = g
		s.wg.Add(1)
		go s.build(g)
	}
	if len(g.lanes[lane]) >= s.cfg.MaxQueue {
		// Expired frames still holding slots are dead weight; reclaim them
		// before refusing a live client.
		s.purgeExpiredLocked(g, job.enq)
	}
	if len(g.lanes[lane]) >= s.cfg.MaxQueue {
		s.overloads.Add(1)
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	g.lanes[lane] = append(g.lanes[lane], job)
	g.queued++
	g.lastUsed = job.enq
	s.mu.Unlock()
	return &PendingFrame{s: s, g: g, job: job}, nil
}

// purgeExpiredLocked drops every queued job of g whose deadline has
// passed, failing it with ErrExpired. Ready or still-uploading alike: the
// client has given up either way. Caller holds the lock.
func (s *Scheduler) purgeExpiredLocked(g *schedGeom, now time.Time) {
	for lane := range g.lanes {
		q := g.lanes[lane]
		kept := q[:0]
		for _, j := range q {
			if !j.deadline.IsZero() && now.After(j.deadline) {
				g.queued--
				s.expired.Add(1)
				s.laneExpired[lane].Add(1)
				j.err = ErrExpired
				close(j.done)
				continue
			}
			kept = append(kept, j)
		}
		for i := len(kept); i < len(q); i++ {
			q[i] = nil
		}
		g.lanes[lane] = kept
	}
}

// complete delivers the decoded frame, marks the job dispatchable and
// kicks the geometry's dispatch loop if it parked while every queued job
// was still uploading.
func (p *PendingFrame) complete(f beamform.Frame) {
	p.job.frame = f
	s := p.s
	s.mu.Lock()
	p.job.ready = true
	p.job.readyAt = s.cfg.Now()
	p.g.lastUsed = p.job.readyAt
	if !p.g.building && !p.g.running && p.g.queued > 0 {
		p.g.running = true
		s.wg.Add(1)
		go s.run(p.g)
	}
	s.mu.Unlock()
}

// CompleteBuffers delivers the frame's decoded echo sets (tx[t][element])
// and makes the job dispatchable.
func (p *PendingFrame) CompleteBuffers(tx [][]rf.EchoBuffer) { p.complete(beamform.Frame{Bufs: tx}) }

// CompletePlanesI16 delivers the frame as guarded int16 echo planes of
// window win with their per-transmit quantization scales — the layout
// wire.DecodePlaneI16 streams into (see beamform.Frame) — and makes the
// job dispatchable.
func (p *PendingFrame) CompletePlanesI16(win int, planes [][]int16, scales []float32) {
	p.complete(beamform.Frame{Planes: planes, Scales: scales, Win: win})
}

// Abort releases the reserved slot without dispatching — the upload
// failed mid-decode. Safe to call after a scheduler Close (the slot is
// already drained then).
func (p *PendingFrame) Abort() {
	s := p.s
	s.mu.Lock()
	removed := s.removeJobLocked(p.g, p.job)
	s.mu.Unlock()
	if removed {
		p.job.err = ErrClosed // never observed: Wait is not called after Abort
		close(p.job.done)
	}
}

// Wait blocks until the frame has run, returning its volume. On ctx
// cancellation the slot is released if the job has not been dispatched
// yet; once it has, Wait still blocks until its Session.Run finishes,
// because the session reads the frame's samples until then and the caller
// may reuse them as soon as Wait returns. It then returns the ctx error,
// also when the frame had already run: a context cancelled before the call
// takes precedence over a finished frame.
func (p *PendingFrame) Wait(ctx context.Context) (*beamform.Volume, error) {
	s := p.s
	if ctx.Err() == nil {
		select {
		case <-p.job.done:
			if p.job.err == nil {
				s.completed.Add(1)
			}
			return p.job.out, p.job.err
		case <-ctx.Done():
		}
	}
	s.mu.Lock()
	if s.removeJobLocked(p.g, p.job) {
		// The caller gave up while the frame was still queued. When the
		// frame's own deadline is what lapsed, classify it as an expiry
		// — the frame never burned a core slot, same as a purge.
		if !p.job.deadline.IsZero() && !s.cfg.Now().Before(p.job.deadline) {
			s.expired.Add(1)
			s.laneExpired[p.job.lane].Add(1)
			s.mu.Unlock()
			return nil, ErrExpired
		}
		s.mu.Unlock()
		return nil, ctx.Err()
	}
	s.mu.Unlock()
	<-p.job.done
	if errors.Is(p.job.err, ErrExpired) {
		// The dispatcher purged the frame from the queue in the same
		// instant the caller's wait lapsed: it never reached a core
		// slot either, so it is the same expiry as above, not a
		// generic wait timeout.
		return nil, ErrExpired
	}
	return nil, ctx.Err()
}

// Submit enqueues one decoded frame for req's geometry on req.Lane and
// blocks until the frame is beamformed, returning its volume: the
// whole-frame form of Begin → CompleteBuffers → Wait. The first frame of
// a cold geometry triggers the session build; frames queue behind the
// build.
func (s *Scheduler) Submit(ctx context.Context, req SessionRequest, tx [][]rf.EchoBuffer) (*beamform.Volume, error) {
	p, err := s.Begin(req)
	if err != nil {
		return nil, err
	}
	p.CompleteBuffers(tx)
	return p.Wait(ctx)
}

// removeJobLocked unlinks a cancelled job from its lane queue; false means
// the job was already taken for dispatch. Caller holds the lock.
func (s *Scheduler) removeJobLocked(g *schedGeom, job *frameJob) bool {
	q := g.lanes[job.lane]
	for i, j := range q {
		if j == job {
			// Delete zeroes the vacated tail slot: the backing array must
			// not keep the job's decoded planes reachable.
			g.lanes[job.lane] = slices.Delete(q, i, i+1)
			g.queued--
			return true
		}
	}
	return false
}

// build constructs the geometry's hot session (first Submit of a cold
// fingerprint runs it in its own goroutine; frames queue meanwhile).
func (s *Scheduler) build(g *schedGeom) {
	defer s.wg.Done()
	var sess *beamform.Session
	var cache *delaycache.Cache
	err := buildFault.Err()
	if err == nil {
		sess, cache, err = g.req.Spec.NewSessionConfig(g.req.Config, g.req.Arch.NewProvider(g.req.Spec))
	}

	s.mu.Lock()
	g.building = false
	if err != nil || s.closed {
		jobs := s.drainLocked(g)
		delete(s.geoms, g.fp)
		s.mu.Unlock()
		if err == nil { // built into a closing scheduler: tear it back down
			destroySession(sess, cache)
			err = ErrClosed
		}
		for _, j := range jobs {
			j.err = err
			close(j.done)
		}
		return
	}
	g.sess, g.cache = sess, cache
	if g.queued > 0 && !g.running {
		g.running = true
		s.wg.Add(1)
		go s.run(g)
	}
	// A handed-off geometry prefills its resident blocks now, off the
	// request path — the whole point of handing it off ahead of the
	// traffic.
	warm := g.warmOnBuild && cache != nil
	if warm {
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if warm {
		go s.warm(cache.Shared())
	}
}

// run is a geometry's dispatch loop: acquire a core slot, take the next
// frame (interactive lane first), beamform it, release the slot; exit when
// the queue drains. Demand respawns the loop on the next Submit.
func (s *Scheduler) run(g *schedGeom) {
	defer s.wg.Done()
	for {
		s.slots <- struct{}{} // turnstile: one frame per turn
		s.mu.Lock()
		job := s.takeLocked(g)
		if job == nil {
			g.running = false
			g.lastUsed = s.cfg.Now()
			s.mu.Unlock()
			<-s.slots
			return
		}
		s.mu.Unlock()
		s.dispatch(g, job)
		<-s.slots
	}
}

// takeLocked removes the next frame from g's queues: the first ready job
// of the interactive lane — that is the whole preemption mechanism — else
// of the bulk lane. Jobs still uploading (ready=false) are skipped over,
// not waited on — a stalled uplink never blocks the frames queued behind
// it — and since only ready jobs are ever taken, a pending slot cannot
// deadlock dispatch.
//
// This is also where deadlines bite: expired jobs are purged before a
// frame is taken, so a dead frame never reaches a core slot. Caller holds
// the lock.
func (s *Scheduler) takeLocked(g *schedGeom) *frameJob {
	s.purgeExpiredLocked(g, s.cfg.Now())
	for lane := range g.lanes {
		q := g.lanes[lane]
		if i := slices.IndexFunc(q, func(j *frameJob) bool { return j.ready }); i >= 0 {
			job := q[i]
			// Delete zeroes the vacated tail slot, so the lane's backing
			// array stops pinning the job (planes and volume) once it completes.
			g.lanes[lane] = slices.Delete(q, i, i+1)
			g.queued--
			return job
		}
	}
	return nil
}

// dispatch beamforms one frame through the geometry's hot session and
// completes its job. An error fails that job only (the session rejects a
// malformed frame before touching any output).
func (s *Scheduler) dispatch(g *schedGeom, job *frameJob) {
	start := s.cfg.Now()
	s.lanes[job.lane].observe(start.Sub(job.readyAt))
	out := g.sess.NewVolume()
	err := dispatchFault.Err()
	if err == nil {
		err = g.sess.Run(out, job.frame)
	}

	s.dispatched.Add(1)
	s.dispatchNs.Add(int64(s.cfg.Now().Sub(start)))
	s.mu.Lock()
	g.lastUsed = s.cfg.Now()
	s.mu.Unlock()

	if err != nil {
		job.err = err
	} else {
		job.out = out
	}
	close(job.done)
}

// drainLocked empties both lanes of g, returning the orphaned jobs for the
// caller to fail outside the lock. Caller holds the lock.
func (s *Scheduler) drainLocked(g *schedGeom) []*frameJob {
	var jobs []*frameJob
	for lane := range g.lanes {
		jobs = append(jobs, g.lanes[lane]...)
		g.lanes[lane] = nil
	}
	g.queued = 0
	return jobs
}

// evictColdestLocked retires the least-recently-used fully idle geometry
// to make room for a new one; false means every geometry is building,
// dispatching or has queued frames. Caller holds the lock; teardown of the
// evicted session is deferred to a goroutine (it joins s.wg so Close still
// waits for it).
func (s *Scheduler) evictColdestLocked() bool {
	var coldest *schedGeom
	for _, g := range s.geoms {
		if g.building || g.running || g.queued > 0 {
			continue
		}
		if coldest == nil || g.lastUsed.Before(coldest.lastUsed) {
			coldest = g
		}
	}
	if coldest == nil {
		return false
	}
	delete(s.geoms, coldest.fp)
	s.evictions.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		destroySession(coldest.sess, coldest.cache)
	}()
	return true
}

// destroySession tears down a hot session and its store attachment,
// evicting the store's blocks (last attachment out drops the geometry's
// whole delay working set).
func destroySession(sess *beamform.Session, cache *delaycache.Cache) {
	if sess != nil {
		sess.Close()
	}
	if cache != nil {
		store := cache.Shared()
		cache.Detach()
		if store != nil && store.Attachments() == 0 {
			store.Evict()
		}
	}
}

// Sweep evicts every geometry that is fully idle — no queue, no dispatch
// loop, no build — and unused for at least IdleTTL. The janitor calls this
// on its ticker; tests call it directly with a synthetic clock.
func (s *Scheduler) Sweep(now time.Time) {
	if s.cfg.IdleTTL <= 0 {
		return
	}
	var doomed []*schedGeom
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for fp, g := range s.geoms {
		if g.building || g.running || g.queued > 0 || now.Sub(g.lastUsed) < s.cfg.IdleTTL {
			continue
		}
		delete(s.geoms, fp)
		s.evictions.Add(1)
		doomed = append(doomed, g)
	}
	s.mu.Unlock()
	for _, g := range doomed {
		destroySession(g.sess, g.cache)
	}
}

// Drain puts the scheduler into draining mode — Begin/Submit refuse with
// ErrDraining — and blocks until every queued frame has dispatched (or
// expired) and every build and dispatch loop has gone idle, or ctx
// cancels. Queued work finishes per lane exactly as it would have under
// load; nothing is dropped. Drain is the graceful half of shutdown: call
// it before Close so in-flight clients get their volumes instead of
// ErrClosed. Safe to call concurrently and after Close (both no-ops once
// the queues are empty).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := true
		now := s.cfg.Now()
		for _, g := range s.geoms {
			// Keep expiring while we wait: a stalled upload with a deadline
			// must not hold the drain hostage.
			s.purgeExpiredLocked(g, now)
			if g.queued > 0 || g.running || g.building {
				idle = false
			}
		}
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueuedFrames counts frames currently queued across all geometries — the
// drain-progress number /healthz reports so a router can watch a node
// empty out.
func (s *Scheduler) QueuedFrames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, g := range s.geoms {
		n += g.queued
	}
	return n
}

// RetryAfterSeconds derives the overload backoff hint from live state:
// queued depth divided by the measured dispatch rate — roughly when the
// backlog will have drained — clamped to [1, 30]. Replaces the constant
// Retry-After: a client told "1" by a node with a 20-second backlog just
// returns to be refused again.
func (s *Scheduler) RetryAfterSeconds() int {
	queued := s.QueuedFrames()
	rate := 0.0
	if ns := s.dispatchNs.Load(); ns > 0 {
		rate = float64(s.dispatched.Load()) / (float64(ns) / 1e9)
	}
	if rate <= 0 {
		rate = 4 // cold scheduler: no measurement yet, assume a few frames/s
	}
	secs := int(math.Ceil(float64(queued+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Close shuts the scheduler down: queued frames fail with ErrClosed,
// in-flight frames finish, dispatch loops and builders join, then every
// hot session closes and every store evicts. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var orphans []*frameJob
	for _, g := range s.geoms {
		orphans = append(orphans, s.drainLocked(g)...)
	}
	s.mu.Unlock()
	for _, j := range orphans {
		j.err = ErrClosed
		close(j.done)
	}
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	s.wg.Wait()
	s.mu.Lock()
	geoms := s.geoms
	s.geoms = map[string]*schedGeom{}
	s.mu.Unlock()
	for _, g := range geoms {
		destroySession(g.sess, g.cache)
	}
}

// laneRecorder keeps a ring of recent queue-wait samples per lane — enough
// for stable p50/p99 in /stats without unbounded memory.
type laneRecorder struct {
	mu         sync.Mutex
	waits      [512]float64 // milliseconds
	n          int          // filled entries
	next       int
	dispatched int64
}

func (r *laneRecorder) observe(wait time.Duration) {
	ms := float64(wait) / float64(time.Millisecond)
	r.mu.Lock()
	r.waits[r.next] = ms
	r.next = (r.next + 1) % len(r.waits)
	if r.n < len(r.waits) {
		r.n++
	}
	r.dispatched++
	r.mu.Unlock()
}

// quantiles returns dispatch count and wait p50/p99 over the retained
// window.
func (r *laneRecorder) quantiles() (dispatched int64, p50, p99 float64) {
	r.mu.Lock()
	dispatched = r.dispatched
	sorted := append([]float64(nil), r.waits[:r.n]...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return dispatched, 0, 0
	}
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return dispatched, at(0.50), at(0.99)
}

// LaneStats is one priority lane's row of SchedulerStats: live queue depth
// plus wait-time percentiles over the recent dispatch window.
type LaneStats struct {
	Queued     int     `json:"queued"`
	Dispatched int64   `json:"dispatched"`
	Expired    int64   `json:"expired"`
	WaitP50Ms  float64 `json:"wait_p50_ms"`
	WaitP99Ms  float64 `json:"wait_p99_ms"`
}

// SchedGeometryStats is one warm geometry's row of SchedulerStats.
type SchedGeometryStats struct {
	Fingerprint string            `json:"fingerprint"`
	Spec        string            `json:"spec"`
	Arch        string            `json:"arch"`
	Frames      int64             `json:"frames"`
	Queued      int               `json:"queued"`
	Building    bool              `json:"building,omitempty"`
	IdleForSec  float64           `json:"idle_for_sec"`
	HitRate     float64           `json:"cache_hit_rate"`
	Cache       *delaycache.Stats `json:"cache,omitempty"`
}

// SchedulerStats snapshots the scheduler for /stats: queue depths,
// dispatch counters and per-lane wait percentiles — the observability the
// preemption claims are checked against.
type SchedulerStats struct {
	MaxGeometries int `json:"max_geometries"`
	MaxQueue      int `json:"max_queue"`

	GeometriesLive int `json:"geometries_live"`
	Queued         int `json:"queued"`

	Submits   int64 `json:"submits"`
	Completed int64 `json:"completed"`
	Overloads int64 `json:"overloads"`
	Evictions int64 `json:"evictions"`
	// Batches and Fused both count dispatched frames: every dispatch runs
	// one frame, so their ratio — the mean batch — is 1.
	Batches int64 `json:"batches"`
	Fused   int64 `json:"batched_frames"`
	Expired int64 `json:"expired"`

	// Resilience posture: whether a drain is in progress, and the backoff
	// hint overloaded clients are being given.
	Draining      bool `json:"draining,omitempty"`
	RetryAfterSec int  `json:"retry_after_sec"`

	Lanes      map[string]LaneStats `json:"lanes"`
	Wire       WireStats            `json:"wire"`
	Geometries []SchedGeometryStats `json:"geometries"`
}

// Stats snapshots the scheduler. It is safe against in-flight dispatches:
// frame and cache counters are atomic.
func (s *Scheduler) Stats() SchedulerStats {
	dispatched := s.dispatched.Load()
	st := SchedulerStats{
		MaxGeometries: s.cfg.MaxGeometries,
		MaxQueue:      s.cfg.MaxQueue,
		Submits:       s.submits.Load(),
		Completed:     s.completed.Load(),
		Overloads:     s.overloads.Load(),
		Evictions:     s.evictions.Load(),
		Batches:       dispatched,
		Fused:         dispatched,
		Expired:       s.expired.Load(),
		RetryAfterSec: s.RetryAfterSeconds(),
		Lanes:         map[string]LaneStats{},
		Wire:          s.wire.stats(),
	}
	laneQueued := [numLanes]int{}
	s.mu.Lock()
	st.Draining = s.draining
	st.GeometriesLive = len(s.geoms)
	for _, g := range s.geoms {
		gs := SchedGeometryStats{
			Fingerprint: g.fp,
			Spec:        g.req.Spec.String(),
			Arch:        g.req.Arch.String(),
			Queued:      g.queued,
			Building:    g.building,
			IdleForSec:  s.cfg.Now().Sub(g.lastUsed).Seconds(),
		}
		if g.sess != nil {
			gs.Frames = g.sess.Frames()
		}
		if g.cache != nil {
			cs := g.cache.Shared().Stats()
			gs.Cache = &cs
			gs.HitRate = cs.HitRate()
		}
		for lane := range g.lanes {
			laneQueued[lane] += len(g.lanes[lane])
		}
		st.Queued += g.queued
		st.Geometries = append(st.Geometries, gs)
	}
	s.mu.Unlock()
	for lane := Lane(0); lane < numLanes; lane++ {
		dispatched, p50, p99 := s.lanes[lane].quantiles()
		st.Lanes[lane.String()] = LaneStats{
			Queued:     laneQueued[lane],
			Dispatched: dispatched,
			Expired:    s.laneExpired[lane].Load(),
			WaitP50Ms:  p50,
			WaitP99Ms:  p99,
		}
	}
	return st
}
