// Scheduler: the frame scheduler that replaces checkout-per-request
// concurrency (PR 6). The Pool's model — N sessions of one geometry checked
// out to N connections — makes N worker pools fight for the same cores
// while each frame regenerates its own non-resident delay blocks. The
// scheduler inverts the model: one hot beamform.Session per warm geometry,
// a per-geometry frame queue in front of it, and a dispatch loop that
// drains the queue through Session.BeamformBatch — so consecutive frames of
// one geometry share a single pass over the depth slices and every
// non-resident delay block is regenerated once per batch instead of once
// per frame. Under a partial cache budget that amortization is the
// throughput win the B6 experiment measures; the ffdas lesson (keep one
// reconstruction pipeline saturated and feed it a queue) applied to the
// CPU datapath.
//
// Two priority lanes ride the same queue: every interactive frame of a
// geometry dispatches before any bulk frame, so a live probe view preempts
// a cine stream at the next batch boundary — MaxBatch bounds how long a
// bulk batch can make an interactive frame wait. A turnstile of CoreSlots
// tokens time-slices the core budget across geometries: a dispatch loop
// acquires a slot per batch, so one geometry's bulk backlog cannot starve
// another geometry (batch-boundary round-robin through the slot queue).
//
// Results are bit-identical to the checkout model: BeamformBatch preserves
// each frame's accumulation order, batches fuse only same-shape frames,
// and the delay store's residency plan changes which blocks are resident,
// never their bytes.
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
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
)

// ErrDraining refuses new frames while the scheduler finishes its queues
// for shutdown. Clients should retry against another node.
var ErrDraining = errors.New("serve: draining for shutdown")

// ErrExpired fails a frame whose client-supplied deadline passed while it
// sat in queue — the frame was dropped before burning a core slot.
var ErrExpired = errors.New("serve: frame deadline expired in queue")

// ErrDegraded fails a bulk frame shed by the overload pressure ladder:
// the frame was accepted and decoded, then deliberately dropped so
// interactive frames keep their latency. The transport layers surface it
// with an explicit "degraded" marker, never as a generic failure.
var ErrDegraded = errors.New("serve: bulk frame shed under overload")

// Pressure ladder rungs. Occupancy is the fullest geometry queue as a
// fraction of MaxQueue; the level climbs one rung per sustained
// PressureWindow above a threshold and drops the moment occupancy recedes.
const (
	pressureInflate = 1 // bulk batches fuse up to bulkInflateFactor× MaxBatch
	pressureShed    = 2 // ready bulk frames are decode-and-dropped as degraded

	pressureLoFrac = 0.5
	pressureHiFrac = 0.9

	bulkInflateFactor = 4
)

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
	// MaxQueue bounds queued frames per geometry across both lanes; beyond
	// it Submit refuses with ErrOverloaded. <=0 defaults to 64.
	MaxQueue int
	// MaxBatch caps how many consecutive same-shape, same-lane frames one
	// dispatch fuses. It is the interactive-latency knob: an interactive
	// frame waits at most one in-flight batch before preempting. <=0
	// defaults to 4.
	MaxBatch int
	// CoreSlots is how many geometries may beamform concurrently — the
	// time-slice width of the core budget. Sessions already parallelize
	// internally across cores, so the default 1 (strict round-robin at
	// batch boundaries) is right unless GOMAXPROCS far exceeds the depth
	// count.
	CoreSlots int
	// IdleTTL evicts a geometry — its hot session and delay store — once
	// nothing has used it for this long. 0 keeps geometries forever.
	IdleTTL time.Duration
	// PlanWeights, when set, supplies per-transmit residency weights for a
	// new geometry's delay store (fed to delaycache.PlanWeighted). nil
	// plans uniform cadence — every transmit fires once per compound
	// frame — which is exactly the store's default interleaved-prefix
	// residency; skewed per-transmit cadence is where a plan moves the
	// hit rate.
	PlanWeights func(req SessionRequest) []float64
	// PressureWindow is how long queue occupancy must hold above a ladder
	// threshold before the overload level climbs a rung (hysteresis against
	// momentary spikes). <=0 defaults to 250ms.
	PressureWindow time.Duration
	// Now injects a clock for tests; nil means time.Now.
	Now func() time.Time
	// Jitter draws the janitor's random start delay from the sweep
	// interval; nil draws uniformly from [0, interval). See PoolConfig.
	Jitter func(interval time.Duration) time.Duration
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

	// pressure is the overload ladder level (0 = normal). pressureRiseAt
	// marks when occupancy first demanded a higher rung; the level climbs
	// only after PressureWindow of sustained demand. Guarded by mu;
	// pressureLevel mirrors it for lock-free reads.
	pressure       int
	pressureRiseAt time.Time
	pressureLevel  atomic.Int32

	// slots is the core-budget turnstile: a dispatch loop holds a token
	// for the duration of one batch. Waiting loops queue on the channel,
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
	batches    atomic.Int64
	fused      atomic.Int64 // frames dispatched through batches
	expired    atomic.Int64 // frames dropped in queue past their deadline
	degraded   atomic.Int64 // bulk frames shed by the pressure ladder
	inflated   atomic.Int64 // bulk batches fused beyond MaxBatch
	dispatchNs atomic.Int64 // wall time spent inside dispatch (rate source)

	batchSizes  []atomic.Int64 // batchSizes[k]: batches of size k+1
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

	// prewarm/warmOnBuild carry a handed-off residency plan into build():
	// set only at creation (Prewarm), read by build without the lock.
	prewarm     []int
	warmOnBuild bool
}

// frameJob is one submitted frame: decoded echo sets (or pre-decoded
// float32 planes, on the wire ingest path) in, volume out. A job enters
// its lane queue the moment Begin reserves the slot — possibly before its
// upload has finished arriving — and becomes dispatchable only when ready
// flips (Complete*), so decode overlaps the backlog without a stalled
// upload ever blocking a batch.
type frameJob struct {
	tx        [][]rf.EchoBuffer
	planes    [][][]float32 // plane ingest: planes[0][t], one frame per job
	planesI16 [][][]int16   // i16 plane ingest: planesI16[0][t]
	scales    [][]float32   // i16 quantization scales: scales[0][t]
	win       int           // plane window (planes or planesI16 != nil)
	lane      Lane
	shape     shapeKey
	enq       time.Time
	deadline  time.Time // zero: no client deadline; else drop from queue past it

	ready   bool      // payload fully decoded; batchable
	readyAt time.Time // lane wait is measured from here, not enq:
	// queue time under the scheduler's control, not the client's uplink

	out  *beamform.Volume
	err  error
	done chan struct{}
}

// shapeKey classifies a frame for batch fusion: BeamformBatch fuses only
// frames whose narrow/flat datapath decisions agree, so the scheduler
// groups queued frames by this key (mirroring beamform's frameShape plus
// the element arity). Plane-ingest frames fuse only with plane-ingest
// frames — they dispatch through BeamformBatchPlanes — and i16
// plane-ingest frames only with each other (BeamformBatchPlanesI16).
type shapeKey struct {
	transmits int
	elements  int
	narrowOK  bool
	uniform   bool
	win       int
	planes    bool
	i16       bool
}

func frameShapeKey(tx [][]rf.EchoBuffer) shapeKey {
	k := shapeKey{transmits: len(tx), narrowOK: true, uniform: true}
	if len(tx) > 0 {
		k.elements = len(tx[0])
	}
	first := true
	for _, bufs := range tx {
		for _, b := range bufs {
			n := len(b.Samples)
			if n > delay.MaxEchoWindow {
				k.narrowOK = false
			}
			if first {
				k.win, first = n, false
			} else if n != k.win {
				k.uniform = false
			}
		}
	}
	return k
}

// NewScheduler builds a scheduler and, when cfg.IdleTTL > 0, starts the
// jittered janitor. Close the scheduler to stop it.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.MaxGeometries <= 0 {
		cfg.MaxGeometries = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4
	}
	if cfg.CoreSlots <= 0 {
		cfg.CoreSlots = 1
	}
	if cfg.PressureWindow <= 0 {
		cfg.PressureWindow = 250 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Scheduler{
		cfg:        cfg,
		geoms:      map[string]*schedGeom{},
		slots:      make(chan struct{}, cfg.CoreSlots),
		batchSizes: make([]atomic.Int64, cfg.MaxBatch),
	}
	if cfg.IdleTTL > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

// janitor mirrors the pool's: half-TTL sweeps after a jittered start.
func (s *Scheduler) janitor() {
	defer close(s.janitorDone)
	interval := s.cfg.IdleTTL / 2
	jitter := s.cfg.Jitter
	if jitter == nil {
		jitter = startJitter
	}
	start := time.NewTimer(jitter(interval))
	defer start.Stop()
	select {
	case <-s.janitorStop:
		return
	case <-start.C:
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		s.Sweep(s.cfg.Now())
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
		}
	}
}

// PendingFrame is a queue slot reserved by Begin before the frame's
// payload exists server-side: the streaming-ingest handle. Exactly one of
// CompleteBuffers / CompletePlanes / CompletePlanesI16 / Abort must
// follow, then Wait collects
// the volume. The slot holds its lane position while the upload decodes,
// and the first frame of a cold geometry starts the session build
// immediately — so by the time a large upload finishes arriving, the
// session is warm and the backlog ahead of it has drained.
type PendingFrame struct {
	s   *Scheduler
	g   *schedGeom
	job *frameJob
}

// Begin reserves a queue slot for one frame of req's geometry on req.Lane
// and triggers the session build for a cold geometry — before the frame's
// payload has arrived. A full per-geometry queue, or a cold geometry
// beyond MaxGeometries with no evictable peer, refuses with ErrOverloaded
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
	if g.queued >= s.cfg.MaxQueue {
		// Expired frames still holding slots are dead weight; reclaim them
		// before refusing a live client.
		s.purgeExpiredLocked(g, job.enq)
	}
	if g.queued >= s.cfg.MaxQueue {
		s.overloads.Add(1)
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	g.lanes[lane] = append(g.lanes[lane], job)
	g.queued++
	g.lastUsed = job.enq
	s.updatePressureLocked(job.enq)
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

// updatePressureLocked recomputes the overload ladder level from queue
// occupancy (fullest geometry as a fraction of MaxQueue). Climbing a rung
// requires the demand to hold for PressureWindow; recovery is immediate.
// Caller holds the lock.
func (s *Scheduler) updatePressureLocked(now time.Time) {
	occ := 0.0
	for _, g := range s.geoms {
		if o := float64(g.queued) / float64(s.cfg.MaxQueue); o > occ {
			occ = o
		}
	}
	target := 0
	switch {
	case occ >= pressureHiFrac:
		target = pressureShed
	case occ >= pressureLoFrac:
		target = pressureInflate
	}
	if target > s.pressure {
		if s.pressureRiseAt.IsZero() {
			s.pressureRiseAt = now
		} else if now.Sub(s.pressureRiseAt) >= s.cfg.PressureWindow {
			s.pressure++
			s.pressureRiseAt = now
		}
	} else {
		s.pressureRiseAt = time.Time{}
		if target < s.pressure {
			s.pressure = target
		}
	}
	s.pressureLevel.Store(int32(s.pressure))
}

// PressureLevel reports the current overload ladder rung (0 = normal, 1 =
// bulk batches inflate, 2 = bulk frames shed).
func (s *Scheduler) PressureLevel() int { return int(s.pressureLevel.Load()) }

// complete marks the pending job dispatchable and kicks the geometry's
// dispatch loop if it parked while every queued job was still uploading.
func (p *PendingFrame) complete() {
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
func (p *PendingFrame) CompleteBuffers(tx [][]rf.EchoBuffer) {
	p.job.tx = tx
	p.job.shape = frameShapeKey(tx)
	p.complete()
}

// CompletePlanes delivers the frame as guarded float32 echo planes —
// planes[t] is transmit t, the layout wire.DecodePlane streams into — and
// makes the job dispatchable through Session.BeamformBatchPlanes. The
// geometry's session must run Precision=float32 (the fingerprint carries
// precision, so a plane-completed geometry is single-precision by
// construction) and every plane must be elements·(win+1) long with zero
// guard slots.
func (p *PendingFrame) CompletePlanes(win int, planes [][]float32) {
	p.job.planes = [][][]float32{planes}
	p.job.win = win
	p.job.shape = shapeKey{
		transmits: len(planes), elements: p.g.req.Spec.Elements(),
		narrowOK: true, uniform: true, win: win, planes: true,
	}
	p.complete()
}

// CompletePlanesI16 delivers the frame as guarded int16 echo planes with
// their per-transmit quantization scales — the layout wire.DecodePlaneI16
// streams into — and makes the job dispatchable through
// Session.BeamformBatchPlanesI16. The geometry's session must run
// Precision=i16 (the fingerprint carries precision, so an i16-completed
// geometry is fixed-point by construction); every plane must be
// elements·(win+1) long with zero guard slots and every scale positive
// finite.
func (p *PendingFrame) CompletePlanesI16(win int, planes [][]int16, scales []float32) {
	p.job.planesI16 = [][][]int16{planes}
	p.job.scales = [][]float32{scales}
	p.job.win = win
	p.job.shape = shapeKey{
		transmits: len(planes), elements: p.g.req.Spec.Elements(),
		narrowOK: true, uniform: true, win: win, planes: true, i16: true,
	}
	p.complete()
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

// Wait blocks until the frame's batch has run, returning its volume. On
// ctx cancellation the slot is released if the job has not entered a
// batch yet; an in-flight batch finishes regardless, the caller just
// stops waiting.
func (p *PendingFrame) Wait(ctx context.Context) (*beamform.Volume, error) {
	s := p.s
	select {
	case <-p.job.done:
		if p.job.err == nil {
			s.completed.Add(1)
		}
		return p.job.out, p.job.err
	case <-ctx.Done():
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
}

// Submit enqueues one decoded frame for req's geometry on req.Lane and
// blocks until the frame is beamformed, returning its volume: the
// whole-frame form of Begin → CompleteBuffers → Wait. The first frame of
// a cold geometry triggers the session build (and delay-store warm plan);
// frames queue behind the build.
func (s *Scheduler) Submit(ctx context.Context, req SessionRequest, tx [][]rf.EchoBuffer) (*beamform.Volume, error) {
	p, err := s.Begin(req)
	if err != nil {
		return nil, err
	}
	p.CompleteBuffers(tx)
	return p.Wait(ctx)
}

// removeJobLocked unlinks a cancelled job from its lane queue; false means
// the job was already taken by a batch. Caller holds the lock.
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
// fingerprint runs it in its own goroutine; frames queue meanwhile). A
// cached request gets a delay store planned by PlanWeights — the
// compound-aware budget plan — before any frame touches it.
func (s *Scheduler) build(g *schedGeom) {
	defer s.wg.Done()
	var sess *beamform.Session
	var cache *delaycache.Cache
	err := buildFault.Err()
	if err == nil {
		sess, cache, err = g.req.Spec.NewSessionConfig(g.req.Config, g.req.Arch.NewProvider(g.req.Spec))
	}
	if err == nil && cache != nil {
		s.planStore(cache.Shared(), g.req)
		if g.warmOnBuild {
			installPlan(cache.Shared(), g.prewarm)
		}
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
	s.mu.Unlock()
	if g.warmOnBuild && cache != nil {
		// A handed-off geometry prefills its planned blocks now, off the
		// request path — the whole point of shipping the plan ahead of the
		// traffic.
		s.warmInBackground(cache.Shared())
	}
}

// planStore installs the per-transmit residency plan on a geometry's
// store. With no PlanWeights hook the cadence is uniform — every transmit
// once per compound frame — and the weighted plan collapses to the store's
// default interleaved prefix (delaycache.PlanUniform), so planning is a
// no-op exactly when the default is already optimal.
func (s *Scheduler) planStore(store *delaycache.Shared, req SessionRequest) {
	if store == nil || store.FullResidency() {
		return
	}
	var weights []float64
	if s.cfg.PlanWeights != nil {
		weights = s.cfg.PlanWeights(req)
	}
	if len(weights) != store.Transmits() {
		weights = make([]float64, store.Transmits())
		for i := range weights {
			weights[i] = 1
		}
	}
	// Quotas computed from demand can only be invalid if PlanWeights
	// returned garbage arity (handled above), so the error is impossible
	// by construction; ignore defensively rather than fail the build.
	_ = store.Plan(delaycache.PlanWeighted(store.ResidentBlocks(), store.Depths(), weights))
}

// run is a geometry's dispatch loop: acquire a core slot, take the next
// batch (interactive lane first), beamform it, release the slot; exit when
// the queue drains. Demand respawns the loop on the next Submit.
func (s *Scheduler) run(g *schedGeom) {
	defer s.wg.Done()
	for {
		s.slots <- struct{}{} // turnstile: one batch per turn
		s.mu.Lock()
		batch := s.takeBatchLocked(g)
		if batch == nil {
			g.running = false
			g.lastUsed = s.cfg.Now()
			s.mu.Unlock()
			<-s.slots
			return
		}
		s.mu.Unlock()
		s.dispatch(g, batch)
		<-s.slots
	}
}

// takeBatchLocked removes the next batch from g's queues: the interactive
// lane always first — that is the whole preemption mechanism — then bulk;
// within a lane, up to MaxBatch consecutive ready frames of one shape (the
// fusion precondition of Session.BeamformBatch). Jobs still uploading
// (ready=false) are skipped over, not waited on — a stalled uplink never
// blocks the frames queued behind it — and since only ready jobs are ever
// taken, a pending slot cannot deadlock dispatch.
//
// This is also where deadlines and the pressure ladder bite: expired jobs
// are purged before any batch forms (a dead frame never reaches a core
// slot), and under overload the bulk lane first fuses larger batches
// (amortizing harder) and then, at the shed rung, decode-and-drops its
// ready frames as ErrDegraded — the interactive lane is never shed.
// Caller holds the lock.
func (s *Scheduler) takeBatchLocked(g *schedGeom) []*frameJob {
	now := s.cfg.Now()
	s.purgeExpiredLocked(g, now)
	s.updatePressureLocked(now)
	for lane := Lane(0); lane < numLanes; lane++ {
		if lane == LaneBulk && s.pressure >= pressureShed {
			s.shedBulkLocked(g)
			continue
		}
		limit := s.cfg.MaxBatch
		if lane == LaneBulk && s.pressure >= pressureInflate {
			limit = s.cfg.MaxBatch * bulkInflateFactor
		}
		q := g.lanes[lane]
		first := -1
		for i, j := range q {
			if j.ready {
				first = i
				break
			}
		}
		if first < 0 {
			continue
		}
		n := 1
		for first+n < len(q) && n < limit &&
			q[first+n].ready && q[first+n].shape == q[first].shape {
			n++
		}
		batch := append([]*frameJob(nil), q[first:first+n]...)
		// Delete zeroes the n vacated tail slots, so the lane's backing
		// array stops pinning the batch (planes and volume) once it completes.
		g.lanes[lane] = slices.Delete(q, first, first+n)
		g.queued -= n
		if n > s.cfg.MaxBatch {
			s.inflated.Add(1)
		}
		return batch
	}
	return nil
}

// shedBulkLocked decode-and-drops every ready bulk frame of g with
// ErrDegraded — the pressure ladder's last rung before interactive
// latency would suffer. Frames still uploading keep their slots (they
// will be shed or dispatched once ready, depending on pressure then).
// Caller holds the lock.
func (s *Scheduler) shedBulkLocked(g *schedGeom) {
	q := g.lanes[LaneBulk]
	kept := q[:0]
	for _, j := range q {
		if !j.ready {
			kept = append(kept, j)
			continue
		}
		g.queued--
		s.degraded.Add(1)
		j.err = ErrDegraded
		close(j.done)
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	g.lanes[LaneBulk] = kept
}

// dispatch beamforms one batch through the geometry's hot session and
// completes its jobs. A batch error fails every job in it (the session
// rejects malformed frames before touching any output). Plane batches
// (wire ingest) run through BeamformBatchPlanes / BeamformBatchPlanesI16
// — same accumulation order, no convert phase; the shape key keeps the
// three forms apart.
func (s *Scheduler) dispatch(g *schedGeom, batch []*frameJob) {
	start := s.cfg.Now()
	outs := make([]*beamform.Volume, len(batch))
	for i, j := range batch {
		outs[i] = g.sess.NewVolume()
		s.lanes[j.lane].observe(start.Sub(j.readyAt))
	}
	err := dispatchFault.Err()
	if err == nil && batch[0].shape.i16 {
		planes := make([][][]int16, len(batch))
		scales := make([][]float32, len(batch))
		for i, j := range batch {
			planes[i] = j.planesI16[0]
			scales[i] = j.scales[0]
		}
		err = g.sess.BeamformBatchPlanesI16(outs, batch[0].win, planes, scales)
	} else if err == nil && batch[0].shape.planes {
		planes := make([][][]float32, len(batch))
		for i, j := range batch {
			planes[i] = j.planes[0]
		}
		err = g.sess.BeamformBatchPlanes(outs, batch[0].win, planes)
	} else if err == nil {
		frames := make([][][]rf.EchoBuffer, len(batch))
		for i, j := range batch {
			frames[i] = j.tx
		}
		err = g.sess.BeamformBatch(outs, frames)
	}

	s.batches.Add(1)
	s.fused.Add(int64(len(batch)))
	s.dispatchNs.Add(int64(s.cfg.Now().Sub(start)))
	if k := len(batch) - 1; k < len(s.batchSizes) {
		s.batchSizes[k].Add(1)
	}
	s.mu.Lock()
	g.lastUsed = s.cfg.Now()
	s.mu.Unlock()

	for i, j := range batch {
		if err != nil {
			j.err = err
		} else {
			j.out = outs[i]
		}
		close(j.done)
	}
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
// on its jittered timer; tests call it directly with a synthetic clock.
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
		rate = float64(s.fused.Load()) / (float64(ns) / 1e9)
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
// in-flight batches finish, dispatch loops and builders join, then every
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
	Plan        []int             `json:"plan,omitempty"` // per-transmit residency quotas
	Cache       *delaycache.Stats `json:"cache,omitempty"`
}

// SchedulerStats snapshots the scheduler for /stats: queue depths,
// per-lane wait percentiles and batch-size counters — the observability
// the batching and preemption claims are checked against.
type SchedulerStats struct {
	MaxGeometries int `json:"max_geometries"`
	MaxQueue      int `json:"max_queue"`
	MaxBatch      int `json:"max_batch"`
	CoreSlots     int `json:"core_slots"`

	GeometriesLive int `json:"geometries_live"`
	Queued         int `json:"queued"`

	Submits   int64 `json:"submits"`
	Completed int64 `json:"completed"`
	Overloads int64 `json:"overloads"`
	Evictions int64 `json:"evictions"`
	Batches   int64 `json:"batches"`
	Fused     int64 `json:"batched_frames"`
	Expired   int64 `json:"expired"`
	Degraded  int64 `json:"degraded_shed"`
	Inflated  int64 `json:"inflated_batches"`

	// Resilience posture: the overload ladder rung, whether a drain is in
	// progress, and the backoff hint overloaded clients are being given.
	PressureLevel int  `json:"pressure_level"`
	Draining      bool `json:"draining,omitempty"`
	RetryAfterSec int  `json:"retry_after_sec"`

	// BatchSizeCounts[k] counts dispatched batches of k+1 frames; the mass
	// above index 0 is the amortization actually realized.
	BatchSizeCounts []int64              `json:"batch_size_counts"`
	Lanes           map[string]LaneStats `json:"lanes"`
	Wire            WireStats            `json:"wire"`
	Geometries      []SchedGeometryStats `json:"geometries"`
}

// Stats snapshots the scheduler. Like the pool's, it is safe against
// in-flight dispatches: frame and cache counters are atomic.
func (s *Scheduler) Stats() SchedulerStats {
	st := SchedulerStats{
		MaxGeometries:   s.cfg.MaxGeometries,
		MaxQueue:        s.cfg.MaxQueue,
		MaxBatch:        s.cfg.MaxBatch,
		CoreSlots:       s.cfg.CoreSlots,
		Submits:         s.submits.Load(),
		Completed:       s.completed.Load(),
		Overloads:       s.overloads.Load(),
		Evictions:       s.evictions.Load(),
		Batches:         s.batches.Load(),
		Fused:           s.fused.Load(),
		Expired:         s.expired.Load(),
		Degraded:        s.degraded.Load(),
		Inflated:        s.inflated.Load(),
		PressureLevel:   s.PressureLevel(),
		RetryAfterSec:   s.RetryAfterSeconds(),
		BatchSizeCounts: make([]int64, len(s.batchSizes)),
		Lanes:           map[string]LaneStats{},
		Wire:            s.wire.stats(),
	}
	for k := range s.batchSizes {
		st.BatchSizeCounts[k] = s.batchSizes[k].Load()
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
			store := g.cache.Shared()
			cs := store.Stats()
			gs.Cache = &cs
			gs.HitRate = cs.HitRate()
			gs.Plan = store.PlanQuota()
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
