// Session: the persistent multi-frame form of the engine. PR 1 made one
// frame fast (block datapath); a cine sequence calls the beamformer once
// per frame, and delays depend only on geometry — so the per-frame setup
// (worker spawn, nappe buffers, output volume) and, with a caching
// provider, delay generation itself are all amortizable across frames.
// Session keeps a worker pool and per-worker nappe buffers alive between
// frames, and its steady-state BeamformInto performs no allocation at all:
// frame dispatch is a token send per worker on prebuilt channels.
//
// The session's hot datapath is narrow (PR 3): workers fill and consume
// delay.Block16 selection indices — 2 bytes per delay instead of 8 — which
// is exact for any echo window within delay.MaxEchoWindow (every Table I
// scale window; see Precision). Frames whose buffers exceed that window
// fall back to the float64 block datapath automatically, so correctness
// never depends on the geometry. PrecisionFloat32 additionally flattens
// the echo buffers to a guarded float32 plane (rebuilt in parallel each
// frame by a convert phase) and accumulates through the unrolled branchless
// kernel; PrecisionInt16 quantizes them to a guarded int16 plane instead —
// 2 B/sample, one scale per frame×transmit — and accumulates in int32
// fixed point through the purego/native kernel_i16 split. Convert-bearing
// frames of small volumes fuse the convert and accumulate phases into one
// token round (jobConvertAccumulate) so tiny specs stop paying two
// dispatch round trips per frame.
//
// Multi-transmit compounding (PR 4): a session built over N per-transmit
// providers beamforms each depth slice once per transmit — the first
// transmit stores, later transmits add — so one pass over the volume
// coherently compounds N insonifications. The accumulation order per voxel
// is transmit-major and identical to summing N single-transmit volumes in
// transmit order, which keeps the compounded float64 frame bit-identical to
// the explicit sequential sum (the compounding invariance contract).
//
// Frame batching (PR 6): BeamformBatch fuses K same-shape frames into one
// worker dispatch, walking each depth slice once per transmit for the whole
// batch — the delay block is obtained (or, when non-resident under a partial
// cache budget, regenerated) once and applied to all K frames. Per-frame
// results stay bit-identical to K sequential BeamformCompoundInto calls
// because the accumulation order within each frame is unchanged; the batch
// changes only how often delay blocks are produced, which is the serving
// scheduler's throughput lever (amortized regeneration).
package beamform

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
)

// batchFault fails a whole batch dispatch before it touches any output —
// the chaos harness's stand-in for a kernel-level failure. Inert (one
// atomic load) unless a schedule arms it.
var batchFault = faultpoint.New("beamform.batch")

// NappeSource is the optional fast path a caching BlockProvider can offer
// on the wide datapath: Nappe returns a retained read-only float64 block
// for nappe id, or nil when the nappe is not resident.
type NappeSource interface {
	Nappe(id int) []float64
}

// NappeSource16 is the narrow form of NappeSource: Nappe16 returns a
// retained read-only quantized block for nappe id, or nil when the nappe
// is not resident. When a session provider implements it (delaycache.Cache
// and its per-transmit views do), resident nappes are consumed in place —
// no generation, no copy, 2 bytes per delay.
type NappeSource16 interface {
	Nappe16(id int) delay.Block16
}

// sessionJob tells the worker pool what a dispatched token means.
type sessionJob int

const (
	jobAccumulate sessionJob = iota // beamform the frame's depth slices
	jobConvert                      // flatten echo buffers to the kernel plane
	// jobConvertAccumulate fuses both phases into one token round: each
	// worker converts its stripe, meets the others at an in-pool barrier,
	// then accumulates its stripe. Numerically identical to the two-round
	// dispatch (the barrier enforces the same convert-before-accumulate
	// ordering); what it removes is one full token round trip through the
	// dispatching goroutine — which is most of a small volume's frame time
	// (the B2 tiny-spec rows), and why BeamformBatch selects it below the
	// measured OneRoundDispatchVoxels threshold.
	jobConvertAccumulate
)

// defaultOneRoundVoxels is the measured crossover of the fused dispatch:
// below it the saved token round dominates, above it the two forms are
// within noise of each other (the barrier and the extra round cost the
// same few microseconds, invisible behind tens of milliseconds of kernel
// work) — see BenchmarkDispatchRounds. The threshold is deliberately
// generous: fusing is never measurably slower, so only genuinely large
// volumes keep the legacy two-round shape.
const defaultOneRoundVoxels = 1 << 16

// oneRoundVoxels is the active threshold; a package-level knob so the B10
// experiment and the crossover benchmark can force either shape.
var oneRoundVoxels = defaultOneRoundVoxels

// SetOneRoundDispatchVoxels overrides the voxel-count threshold below
// which a convert-bearing batch runs as one fused token round, returning
// the previous value: 0 forces the two-round dispatch always, a huge value
// forces fusion always, negative restores the default. It is a benchmark
// and experiment knob — not safe to call with frames in flight.
func SetOneRoundDispatchVoxels(v int) int {
	prev := oneRoundVoxels
	if v < 0 {
		v = defaultOneRoundVoxels
	}
	oneRoundVoxels = v
	return prev
}

// Session is a reusable multi-frame beamformer: one geometry, one delay
// provider per transmit, a persistent worker pool. Single-insonification
// frames are beamformed by Beamform / BeamformInto / BeamformFrames /
// Stream; compound frames by BeamformCompound / BeamformCompoundInto /
// StreamCompound; Close releases the workers. A Session must not be used
// concurrently — one frame is in flight at a time (the parallelism is
// inside the frame).
type Session struct {
	eng     *Engine
	bps     []delay.BlockProvider // one per transmit
	srcs    []NappeSource         // per transmit; non-nil where blocks are retained wide
	srcs16  []NappeSource16       // per transmit; non-nil where narrow blocks are retained
	layout  delay.Layout
	workers int

	start []chan struct{} // per-worker frame triggers
	done  chan struct{}   // workers report job completion

	// Per-batch shared state, published before the start tokens and
	// therefore visible to workers via the channel happens-before edge.
	job     sessionJob
	batch   [][][]rf.EchoBuffer // frames in flight: [frame][transmit][element]
	outs    []*Volume           // one destination volume per frame in flight
	narrow  bool                // int16 delay blocks are exact for this batch's windows
	useFlat bool                // accumulate through the float32 kernel this batch
	useI16  bool                // accumulate through the fixed-point i16 kernel this batch

	// tx1 / batch1 / out1 are the persistent wrappers BeamformInto and
	// BeamformCompoundInto reuse so the steady-state single frame stays
	// allocation-free through the batched dispatch path.
	tx1    [1][]rf.EchoBuffer
	batch1 [1][][]rf.EchoBuffer
	out1   [1]*Volume

	// Flattened float32 echo planes: one guarded row of flatWin+1 samples
	// per element, one plane per transmit (plane t starts at t·planeLen),
	// guard slots permanently zero (the branchless kernel's out-of-window
	// target). Rebuilt by the convert job, reused across frames of the same
	// window length. flatOff caches each active element's row offset within
	// a plane so the kernel replaces a multiply per gather with a sequential
	// table load.
	flat     []float32
	flatWin  int
	planeLen int
	flatOff  []int32

	// The i16 form of the flattened planes (PrecisionInt16): quantized
	// int16 rows sharing flatWin/planeLen geometry with flat, plus one
	// kernel rescale per frame×transmit plane (i16Scale[k·T+t] =
	// Engine.i16VoxelScale of the plane's quantization step), written by
	// the convert phase before the accumulate phase reads it. i16Tab is
	// the fixed-point kernel's operand table for the current window
	// (Engine.i16GatherTable), rebuilt with flatOff.
	flatI16  []int16
	i16Scale []float64
	i16Tab   *i16Table

	// extPlanes, when non-nil, carries caller-owned guarded float32 planes
	// for the batch in flight (extPlanes[k][t] is frame k / transmit t,
	// stride flatWin+1, guard slots zero) — the decode-into-plane ingest
	// path: the wire layer already produced the exact layout convertStripe
	// would build, so the convert dispatch is skipped entirely.
	extPlanes [][][]float32

	// extPlanesI16 is the i16 form of extPlanes — caller-owned quantized
	// planes (wire.DecodePlaneI16 output), their per-plane rescales carried
	// in i16Scale exactly as the internal convert would have left them.
	extPlanesI16 [][][]int16

	// The fused-dispatch barrier: workers running jobConvertAccumulate
	// arrive here between their convert and accumulate halves. The last
	// arrival resets the counter and releases the rest through barRelease
	// (buffered workers−1, allocated once), so the steady state stays
	// allocation-free.
	barArrived atomic.Int32
	barRelease chan struct{}

	// frames is atomic: a serving frontend scrapes Frames() from stats
	// goroutines while the owning goroutine beamforms.
	frames atomic.Int64
	closed bool
}

// CacheStatsSource is implemented by caching delay providers that can
// report effectiveness counters (delaycache.Cache and its transmit views).
// The session surfaces it through CacheStats so a /stats scraper never has
// to know which provider chain a session was built over.
type CacheStatsSource interface {
	Stats() delaycache.Stats
}

// NewSession builds a single-transmit session running the engine's block
// datapath over p (plain Providers are lifted via delay.AsBlock, caching
// providers are detected through NappeSource/NappeSource16) and spawns the
// worker pool. Callers own the session lifecycle: Close it when the cine
// sequence ends.
func (e *Engine) NewSession(p delay.Provider) (*Session, error) {
	return e.NewSessionProviders([]delay.Provider{p})
}

// NewSessionProviders builds a session over one delay provider per
// transmit of a compounding set: ps[t] generates the delays of transmit t
// (derive the set with delay.ForTransmits, or pass delaycache.Cache
// per-transmit views to share one block budget across the set). A
// single-entry list is the plain single-insonification session.
func (e *Engine) NewSessionProviders(ps []delay.Provider) (*Session, error) {
	if len(ps) == 0 {
		return nil, errors.New("beamform: no delay providers")
	}
	layout := delay.Layout{
		NTheta: e.Cfg.Vol.Theta.N, NPhi: e.Cfg.Vol.Phi.N,
		NX: e.Cfg.Arr.NX, NY: e.Cfg.Arr.NY,
	}
	if !layout.Valid() {
		return nil, fmt.Errorf("beamform: invalid nappe layout %v", layout)
	}
	s := &Session{
		eng: e, layout: layout,
		bps:     make([]delay.BlockProvider, len(ps)),
		srcs:    make([]NappeSource, len(ps)),
		srcs16:  make([]NappeSource16, len(ps)),
		workers: e.workerCount(),
		done:    make(chan struct{}),
	}
	for t, p := range ps {
		if p == nil {
			return nil, fmt.Errorf("beamform: nil delay provider for transmit %d", t)
		}
		bp := delay.AsBlock(p, layout)
		s.bps[t] = bp
		if src, ok := bp.(NappeSource); ok {
			s.srcs[t] = src
		}
		if src, ok := bp.(NappeSource16); ok {
			s.srcs16[t] = src
		}
	}
	s.barRelease = make(chan struct{}, s.workers-1)
	s.start = make([]chan struct{}, s.workers)
	for w := 0; w < s.workers; w++ {
		s.start[w] = make(chan struct{}, 1)
		go s.worker(w)
	}
	return s, nil
}

// worker is the persistent per-worker loop: it owns one reusable narrow
// nappe buffer, one float64 scratch and one int32 voxel row (the
// fixed-point kernel's accumulators) for the life of the session, and
// serves whichever job each frame dispatches — flattening its stripe of
// echo buffers, or beamforming depth slices w, w+workers, ... of the frame.
func (s *Session) worker(w int) {
	scratch := make([]float64, s.layout.BlockLen())
	buf16 := make(delay.Block16, s.layout.BlockLen())
	row := make([]int32, s.layout.NTheta*s.layout.NPhi)
	for range s.start[w] {
		switch s.job {
		case jobConvert:
			s.convert(w)
		case jobConvertAccumulate:
			s.convert(w)
			s.barrier()
			s.accumulateStripe(w, buf16, scratch, row)
		default:
			s.accumulateStripe(w, buf16, scratch, row)
		}
		s.done <- struct{}{}
	}
}

// convert runs the batch's convert phase stripe for worker w in whichever
// plane representation the batch selected.
func (s *Session) convert(w int) {
	if s.useI16 {
		s.convertStripeI16(w)
	} else {
		s.convertStripe(w)
	}
}

// barrier holds a jobConvertAccumulate worker until every worker's convert
// half is done — the ordering edge the two-round dispatch got from its
// intermediate token collection, at the cost of one atomic and a channel
// op instead of a full round trip. Safe for reuse across batches: the next
// batch cannot be dispatched until every worker has passed the barrier and
// sent done, at which point the counter is zero and the channel is empty.
func (s *Session) barrier() {
	if int(s.barArrived.Add(1)) == s.workers {
		s.barArrived.Store(0)
		for i := 0; i < s.workers-1; i++ {
			s.barRelease <- struct{}{}
		}
		return
	}
	<-s.barRelease
}

// convertStripe flattens echo buffers of the batch into the session's
// guarded float32 planes, striping over the (frame, transmit, element) rows.
// Frame k's transmit-t plane starts at (k·T+t)·planeLen, so the accumulate
// kernel addresses planes exactly as the single-frame path does within each
// frame.
func (s *Session) convertStripe(w int) {
	stride := s.flatWin + 1
	nTx := len(s.batch[0])
	nElem := len(s.batch[0][0])
	total := len(s.batch) * nTx * nElem
	for r := w; r < total; r += s.workers {
		k, rem := r/(nTx*nElem), r%(nTx*nElem)
		t, d := rem/nElem, rem%nElem
		base := (k*nTx+t)*s.planeLen + d*stride
		row := s.flat[base : base+s.flatWin]
		for i, v := range s.batch[k][t][d].Samples {
			row[i] = float32(v)
		}
	}
}

// convertStripeI16 quantizes echo buffers of the batch into the session's
// guarded int16 planes, striping over whole (frame, transmit) planes
// rather than element rows: the per-frame quantization scale is a
// reduction over the entire plane (the peak pass), so a plane is one
// worker's indivisible unit. Plane k·T+t starts at (k·T+t)·planeLen and
// its kernel rescale lands in i16Scale[k·T+t].
func (s *Session) convertStripeI16(w int) {
	nTx := len(s.batch[0])
	total := len(s.batch) * nTx
	for r := w; r < total; r += s.workers {
		k, t := r/nTx, r%nTx
		plane := s.flatI16[r*s.planeLen : (r+1)*s.planeLen]
		scale := rf.QuantizePlaneI16(plane, s.batch[k][t], s.flatWin)
		s.i16Scale[r] = s.eng.i16VoxelScale(scale)
	}
}

// accumulateStripe beamforms depth slices w, w+workers, ... of the batch:
// for each slice, every transmit's delay block is obtained once — a narrow
// (or, on fallback, wide) block, resident blocks from a NappeSource consumed
// in place — and the precision-selected kernel runs over every frame of the
// batch with the first transmit storing and later transmits adding. The
// loop nesting is slice → transmit → frame, so within each frame the
// per-voxel accumulation order is exactly the single-frame order (the
// batching bit-identity contract), while a non-resident block is generated
// once per batch instead of once per frame.
func (s *Session) accumulateStripe(w int, buf16 delay.Block16, scratch []float64, row []int32) {
	nTx := len(s.bps)
	for id := w; id < s.eng.Cfg.Vol.Depth.N; id += s.workers {
		for t := 0; t < nTx; t++ {
			add := t > 0
			if !s.narrow {
				// Wide fallback: float64 blocks end to end (PrecisionWide, or
				// an echo window beyond delay.MaxEchoWindow).
				blk := scratch
				if s.srcs[t] != nil {
					if resident := s.srcs[t].Nappe(id); resident != nil {
						blk = resident
					} else {
						s.bps[t].FillNappe(id, scratch)
					}
				} else {
					s.bps[t].FillNappe(id, scratch)
				}
				for k, frame := range s.batch {
					s.eng.accumulateNappe(blk, frame[t], id, s.outs[k], add)
				}
				continue
			}
			blk := buf16
			resident := false
			if s.srcs16[t] != nil {
				if r := s.srcs16[t].Nappe16(id); r != nil {
					blk, resident = r, true
				}
			}
			if !resident && s.srcs[t] != nil {
				// Wide-retaining provider on the narrow path: quantize the
				// resident block — exact — instead of regenerating. (delaycache
				// in Wide A/B mode performs the same quantization inside
				// FillNappe16, so it is covered by the Fill16 call below.)
				if r := s.srcs[t].Nappe(id); r != nil {
					delay.QuantizeNappe(buf16, r)
					resident = true
				}
			}
			if !resident {
				delay.Fill16(s.bps[t], id, buf16, scratch)
			}
			if s.useI16 {
				if s.extPlanesI16 != nil {
					for k := range s.extPlanesI16 {
						s.eng.accumulateNappe16I16(blk, s.extPlanesI16[k][t], s.i16Tab, id, s.outs[k], s.i16Scale[k*nTx+t], add, row)
					}
					continue
				}
				for k := range s.batch {
					plane := s.flatI16[(k*nTx+t)*s.planeLen : (k*nTx+t+1)*s.planeLen]
					s.eng.accumulateNappe16I16(blk, plane, s.i16Tab, id, s.outs[k], s.i16Scale[k*nTx+t], add, row)
				}
			} else if s.useFlat {
				if s.extPlanes != nil {
					for k := range s.extPlanes {
						s.eng.accumulateNappe16Narrow(blk, s.extPlanes[k][t], s.flatOff, s.flatWin, id, s.outs[k], add)
					}
					continue
				}
				for k := range s.batch {
					plane := s.flat[(k*nTx+t)*s.planeLen : (k*nTx+t+1)*s.planeLen]
					s.eng.accumulateNappe16Narrow(blk, plane, s.flatOff, s.flatWin, id, s.outs[k], add)
				}
			} else {
				for k, frame := range s.batch {
					s.eng.accumulateNappe16(blk, frame[t], id, s.outs[k], add)
				}
			}
		}
	}
}

// dispatch runs one job across the worker pool and waits for completion.
func (s *Session) dispatch(job sessionJob) {
	s.job = job
	for w := 0; w < s.workers; w++ {
		s.start[w] <- struct{}{}
	}
	for w := 0; w < s.workers; w++ {
		<-s.done
	}
}

// Workers returns the pool size (fixed at session creation).
func (s *Session) Workers() int { return s.workers }

// Frames returns how many frames the session has beamformed. It is safe to
// call concurrently with a frame in flight (the counter is atomic), so a
// stats endpoint can scrape live sessions.
func (s *Session) Frames() int64 { return s.frames.Load() }

// CacheStats returns the delay-cache snapshot of the transmit-0 provider
// when the session was built over a caching chain, and ok=false otherwise.
// Like Frames, it is safe to call concurrently with a frame in flight —
// the cache counters are atomic — which is what lets a serving frontend's
// /stats endpoint scrape checked-out sessions without stopping them.
func (s *Session) CacheStats() (st delaycache.Stats, ok bool) {
	src, ok := s.bps[0].(CacheStatsSource)
	if !ok {
		return delaycache.Stats{}, false
	}
	return src.Stats(), true
}

// Transmits returns the per-frame insonification count (1 for a plain
// session).
func (s *Session) Transmits() int { return len(s.bps) }

// Provider returns the block provider of transmit 0 (the cache view when
// one is installed).
func (s *Session) Provider() delay.BlockProvider { return s.bps[0] }

// frameShape classifies the frame's echo buffers across every transmit:
// whether int16 selection indices are exact for every window, and whether
// the windows are uniform (the float32 flattening needs one stride).
func frameShape(txBufs [][]rf.EchoBuffer) (narrowOK, uniform bool, win int) {
	narrowOK, uniform, win = true, true, 0
	first := true
	for _, bufs := range txBufs {
		for _, b := range bufs {
			n := len(b.Samples)
			if n > delay.MaxEchoWindow {
				narrowOK = false
			}
			if first {
				win, first = n, false
			} else if n != win {
				uniform = false
			}
		}
	}
	return narrowOK, uniform, win
}

// BeamformBatch beamforms a batch of compound frames in one dispatch over
// the worker pool: batch[k][t] holds the echo buffers of frame k recorded
// after insonification t, and dsts[k] receives frame k's compounded volume.
// The per-frame results are bit-identical to len(batch) sequential
// BeamformCompoundInto calls — each frame's per-voxel accumulation still
// runs store-then-add in transmit order per depth slice — while every
// transmit's delay block is obtained once per depth slice for the whole
// batch, so blocks outside a partial cache budget are regenerated once per
// batch instead of once per frame. That amortization is the serving
// scheduler's throughput lever.
//
// Every frame of a batch must share one shape: the same transmit count,
// element count and window classification (frameShape), because the
// narrow/flat datapath decisions are made once for the whole batch — and
// must equal what each frame would decide alone, or bit-identity breaks.
// Mixed shapes return an error; callers batching heterogeneous traffic
// group frames by shape first. dsts must be distinct volumes carrying the
// session's grid.
func (s *Session) BeamformBatch(dsts []*Volume, batch [][][]rf.EchoBuffer) error {
	if s.closed {
		return errors.New("beamform: session is closed")
	}
	if err := batchFault.Err(); err != nil {
		return err
	}
	if len(batch) == 0 {
		return errors.New("beamform: empty batch")
	}
	if len(dsts) != len(batch) {
		return fmt.Errorf("beamform: %d destination volumes for %d frames", len(dsts), len(batch))
	}
	for k, dst := range dsts {
		if dst == nil || len(dst.Data) != s.eng.Cfg.Vol.Points() {
			return fmt.Errorf("beamform: destination volume needs %d points", s.eng.Cfg.Vol.Points())
		}
		if dst.Vol != s.eng.Cfg.Vol {
			return fmt.Errorf("beamform: destination grid %v is not the session grid %v",
				dst.Vol, s.eng.Cfg.Vol)
		}
		for j := 0; j < k; j++ {
			if dsts[j] == dst {
				return fmt.Errorf("beamform: frames %d and %d share a destination volume", j, k)
			}
		}
	}
	var narrowOK, uniform bool
	var win int
	for k, txBufs := range batch {
		if len(txBufs) != len(s.bps) {
			return fmt.Errorf("beamform: %d echo sets for %d transmits", len(txBufs), len(s.bps))
		}
		for t, bufs := range txBufs {
			if len(bufs) != s.eng.Cfg.Arr.Elements() {
				return fmt.Errorf("beamform: transmit %d has %d echo buffers for %d elements",
					t, len(bufs), s.eng.Cfg.Arr.Elements())
			}
		}
		n, u, w := frameShape(txBufs)
		if k == 0 {
			narrowOK, uniform, win = n, u, w
		} else if n != narrowOK || u != uniform || w != win {
			return fmt.Errorf("beamform: frame %d shape differs from frame 0 (a batch fuses one shape; group frames by shape)", k)
		}
	}
	s.narrow = narrowOK && s.eng.Cfg.Precision != PrecisionWide
	// The flat/i16 decision is per-frame-shape, independent of batch size,
	// so a batched frame takes exactly the kernel it would take alone.
	planeFits := uniform && len(batch[0])*len(batch[0][0])*(win+1) <= math.MaxInt32 // row offsets are int32
	s.useFlat = s.narrow && planeFits && s.eng.Cfg.Precision == PrecisionFloat32
	// An aperture that defeated the int32 accumulator bound (i16OK false)
	// demotes to the exact float64 kernel rather than risking overflow.
	s.useI16 = s.narrow && planeFits && s.eng.Cfg.Precision == PrecisionInt16 && s.eng.i16OK
	s.batch, s.outs = batch, dsts
	if s.useFlat || s.useI16 {
		plane := len(batch[0][0]) * (win + 1)
		if s.flatWin != win || s.planeLen != plane {
			// Window changed: rebuild the plane geometry.
			s.flat, s.flatI16 = nil, nil
			s.flatWin, s.planeLen = win, plane
			s.flatOff = make([]int32, len(s.eng.activeIdx))
			for j, d := range s.eng.activeIdx {
				s.flatOff[j] = d * int32(win+1)
			}
			if s.useI16 {
				s.i16Tab = s.eng.i16GatherTable(win)
			}
		}
		// Grow only: a smaller batch reuses the larger plane set (rows
		// never move within a plane, so guard slots stay zero).
		need := len(batch) * len(batch[0]) * plane
		if s.useI16 {
			if need > len(s.flatI16) {
				s.flatI16 = make([]int16, need)
			}
			if n := len(batch) * len(batch[0]); n > len(s.i16Scale) {
				s.i16Scale = make([]float64, n)
			}
		} else if need > len(s.flat) {
			s.flat = make([]float32, need)
		}
		if s.eng.Cfg.Vol.Points() <= oneRoundVoxels {
			s.dispatch(jobConvertAccumulate)
		} else {
			s.dispatch(jobConvert)
			s.dispatch(jobAccumulate)
		}
	} else {
		s.dispatch(jobAccumulate)
	}
	s.batch, s.outs = nil, nil
	s.frames.Add(int64(len(batch)))
	return nil
}

// BeamformBatchPlanes beamforms a batch of compound frames whose echoes
// already live in guarded float32 planes — the layout the convert phase of
// BeamformBatch would build: planes[k][t] holds frame k / transmit t as
// elements·(win+1) float32s, element d's window at d·(win+1), and the
// guard slot (position win of each row) zero — it is the branchless
// kernel's clamp target, so a non-zero guard corrupts out-of-window
// gathers. The wire layer's DecodePlane produces exactly this layout, so
// streamed i16/f32 ingest skips both the float64 intermediate and the
// whole convert dispatch: samples go wire → plane → kernel.
//
// The accumulation order per frame is identical to BeamformBatch's flat
// path (slice → transmit → frame, store-then-add), so a plane batch is
// bit-identical to BeamformBatch over echo buffers carrying the same
// float32 sample values. It requires PrecisionFloat32 (the only precision
// that consumes float32 planes) and a window within delay.MaxEchoWindow.
func (s *Session) BeamformBatchPlanes(dsts []*Volume, win int, planes [][][]float32) error {
	if s.closed {
		return errors.New("beamform: session is closed")
	}
	if err := batchFault.Err(); err != nil {
		return err
	}
	if s.eng.Cfg.Precision != PrecisionFloat32 {
		return fmt.Errorf("beamform: plane batches need Precision=float32 (have %s)", s.eng.Cfg.Precision)
	}
	if win <= 0 || win > delay.MaxEchoWindow {
		return fmt.Errorf("beamform: plane window %d outside (0, %d]", win, delay.MaxEchoWindow)
	}
	if len(planes) == 0 {
		return errors.New("beamform: empty batch")
	}
	if len(dsts) != len(planes) {
		return fmt.Errorf("beamform: %d destination volumes for %d frames", len(dsts), len(planes))
	}
	elems := s.eng.Cfg.Arr.Elements()
	planeLen := elems * (win + 1)
	if planeLen > math.MaxInt32 { // row offsets are int32
		return fmt.Errorf("beamform: plane of %d float32s exceeds the int32 offset range", planeLen)
	}
	for k, dst := range dsts {
		if dst == nil || len(dst.Data) != s.eng.Cfg.Vol.Points() {
			return fmt.Errorf("beamform: destination volume needs %d points", s.eng.Cfg.Vol.Points())
		}
		if dst.Vol != s.eng.Cfg.Vol {
			return fmt.Errorf("beamform: destination grid %v is not the session grid %v",
				dst.Vol, s.eng.Cfg.Vol)
		}
		for j := 0; j < k; j++ {
			if dsts[j] == dst {
				return fmt.Errorf("beamform: frames %d and %d share a destination volume", j, k)
			}
		}
	}
	for k, tx := range planes {
		if len(tx) != len(s.bps) {
			return fmt.Errorf("beamform: frame %d has %d planes for %d transmits", k, len(tx), len(s.bps))
		}
		for t, p := range tx {
			if len(p) != planeLen {
				return fmt.Errorf("beamform: frame %d transmit %d plane has %d float32s (want %d elements × %d)",
					k, t, len(p), elems, win+1)
			}
		}
	}
	s.narrow, s.useFlat, s.useI16 = true, true, false
	if s.flatWin != win || s.planeLen != planeLen {
		s.flat, s.flatI16 = nil, nil // any interleaved buffer batch re-sizes its own planes
		s.flatWin, s.planeLen = win, planeLen
		s.flatOff = make([]int32, len(s.eng.activeIdx))
		for j, d := range s.eng.activeIdx {
			s.flatOff[j] = d * int32(win+1)
		}
	}
	s.extPlanes, s.outs = planes, dsts
	s.dispatch(jobAccumulate)
	s.extPlanes, s.outs = nil, nil
	s.frames.Add(int64(len(planes)))
	return nil
}

// BeamformBatchPlanesI16 is the ADC-native form of BeamformBatchPlanes: a
// batch of compound frames whose echoes already live in guarded int16
// planes — the layout wire.DecodePlaneI16 streams straight off an i16 UBF1
// frame — with scales[k][t] the quantization step of frame k / transmit t
// (sample = int16·scale, positive and finite, as the wire header carries
// it). When the client ships i16 frames and the session runs the i16
// kernel, ingest is a near-memcpy: no float32 intermediate exists anywhere
// between the ADC words on the wire and the kernel's gathers.
//
// It requires PrecisionInt16 on an aperture that satisfied the int32
// accumulator bound (Engine.I16Capable; sessions whose aperture demoted
// reject plane batches rather than silently widening, because the caller
// already quantized) and a window within delay.MaxEchoWindow. The
// accumulation order matches BeamformBatch's i16 path exactly, so a plane
// batch is bit-identical to BeamformBatch over echo buffers that quantize
// to the same int16 samples and scales.
func (s *Session) BeamformBatchPlanesI16(dsts []*Volume, win int, planes [][][]int16, scales [][]float32) error {
	if s.closed {
		return errors.New("beamform: session is closed")
	}
	if err := batchFault.Err(); err != nil {
		return err
	}
	if s.eng.Cfg.Precision != PrecisionInt16 {
		return fmt.Errorf("beamform: i16 plane batches need Precision=i16 (have %s)", s.eng.Cfg.Precision)
	}
	if !s.eng.i16OK {
		return errors.New("beamform: aperture exceeds the int32 accumulator bound; i16 plane batches unavailable")
	}
	if win <= 0 || win > delay.MaxEchoWindow {
		return fmt.Errorf("beamform: plane window %d outside (0, %d]", win, delay.MaxEchoWindow)
	}
	if len(planes) == 0 {
		return errors.New("beamform: empty batch")
	}
	if len(dsts) != len(planes) {
		return fmt.Errorf("beamform: %d destination volumes for %d frames", len(dsts), len(planes))
	}
	elems := s.eng.Cfg.Arr.Elements()
	planeLen := elems * (win + 1)
	if planeLen > math.MaxInt32 { // row offsets are int32
		return fmt.Errorf("beamform: plane of %d int16s exceeds the int32 offset range", planeLen)
	}
	for k, dst := range dsts {
		if dst == nil || len(dst.Data) != s.eng.Cfg.Vol.Points() {
			return fmt.Errorf("beamform: destination volume needs %d points", s.eng.Cfg.Vol.Points())
		}
		if dst.Vol != s.eng.Cfg.Vol {
			return fmt.Errorf("beamform: destination grid %v is not the session grid %v",
				dst.Vol, s.eng.Cfg.Vol)
		}
		for j := 0; j < k; j++ {
			if dsts[j] == dst {
				return fmt.Errorf("beamform: frames %d and %d share a destination volume", j, k)
			}
		}
	}
	if len(scales) != len(planes) {
		return fmt.Errorf("beamform: %d scale sets for %d frames", len(scales), len(planes))
	}
	nTx := len(s.bps)
	for k, tx := range planes {
		if len(tx) != nTx {
			return fmt.Errorf("beamform: frame %d has %d planes for %d transmits", k, len(tx), nTx)
		}
		if len(scales[k]) != nTx {
			return fmt.Errorf("beamform: frame %d has %d scales for %d transmits", k, len(scales[k]), nTx)
		}
		for t, p := range tx {
			if len(p) != planeLen {
				return fmt.Errorf("beamform: frame %d transmit %d plane has %d int16s (want %d elements × %d)",
					k, t, len(p), elems, win+1)
			}
			if sc := scales[k][t]; !(sc > 0) || math.IsInf(float64(sc), 0) {
				return fmt.Errorf("beamform: frame %d transmit %d scale %v is not a positive finite factor", k, t, sc)
			}
		}
	}
	s.narrow, s.useFlat, s.useI16 = true, false, true
	if s.flatWin != win || s.planeLen != planeLen {
		s.flat, s.flatI16 = nil, nil // any interleaved buffer batch re-sizes its own planes
		s.flatWin, s.planeLen = win, planeLen
		s.flatOff = make([]int32, len(s.eng.activeIdx))
		for j, d := range s.eng.activeIdx {
			s.flatOff[j] = d * int32(win+1)
		}
		s.i16Tab = s.eng.i16GatherTable(win)
	}
	if n := len(planes) * nTx; n > len(s.i16Scale) {
		s.i16Scale = make([]float64, n)
	}
	for k := range scales {
		for t, sc := range scales[k] {
			s.i16Scale[k*nTx+t] = s.eng.i16VoxelScale(sc)
		}
	}
	s.extPlanesI16, s.outs = planes, dsts
	s.dispatch(jobAccumulate)
	s.extPlanesI16, s.outs = nil, nil
	s.frames.Add(int64(len(planes)))
	return nil
}

// BeamformCompoundInto beamforms one compound frame into dst, reusing
// dst.Data in place: txBufs[t] holds the echo buffers recorded after
// insonification t, and the output volume is the coherent sum of the
// per-transmit beamformations in transmit order. With one transmit this is
// exactly BeamformInto. The steady state performs no allocation (after the
// first frame sizes any cache and, on the float32 path, the flattened echo
// planes). dst must carry the session's volume grid.
func (s *Session) BeamformCompoundInto(dst *Volume, txBufs [][]rf.EchoBuffer) error {
	s.batch1[0], s.out1[0] = txBufs, dst
	err := s.BeamformBatch(s.out1[:], s.batch1[:])
	s.batch1[0], s.out1[0] = nil, nil
	return err
}

// NewVolume allocates an output volume on the session's grid — the
// destination shape BeamformInto / BeamformBatch expect. Serving callers
// that batch frames allocate destinations through this instead of knowing
// the engine's volume configuration.
func (s *Session) NewVolume() *Volume {
	return &Volume{Vol: s.eng.Cfg.Vol, Data: make([]float64, s.eng.Cfg.Vol.Points())}
}

// BeamformCompound beamforms one compound frame into a fresh volume.
func (s *Session) BeamformCompound(txBufs [][]rf.EchoBuffer) (*Volume, error) {
	out := s.NewVolume()
	if err := s.BeamformCompoundInto(out, txBufs); err != nil {
		return nil, err
	}
	return out, nil
}

// BeamformInto beamforms one single-insonification frame from bufs into
// dst, reusing dst.Data in place. This is the allocation-free steady state:
// after the first frame (which may warm a cache, and on the float32 path
// sizes the flattened echo plane) no allocation occurs on this path. dst
// must carry the session's volume grid. It requires a single-transmit
// session; compound sessions beamform via BeamformCompoundInto.
func (s *Session) BeamformInto(dst *Volume, bufs []rf.EchoBuffer) error {
	if len(s.bps) != 1 {
		return fmt.Errorf("beamform: session compounds %d transmits; use BeamformCompoundInto", len(s.bps))
	}
	s.tx1[0] = bufs
	err := s.BeamformCompoundInto(dst, s.tx1[:])
	s.tx1[0] = nil
	return err
}

// Beamform beamforms one frame into a freshly allocated volume.
func (s *Session) Beamform(bufs []rf.EchoBuffer) (*Volume, error) {
	out := s.NewVolume()
	if err := s.BeamformInto(out, bufs); err != nil {
		return nil, err
	}
	return out, nil
}

// BeamformFrames beamforms a cine sequence, one output volume per frame.
// Frame 0 warms any cache in the provider chain; later frames reuse it.
func (s *Session) BeamformFrames(frames [][]rf.EchoBuffer) ([]*Volume, error) {
	out := make([]*Volume, len(frames))
	for i, bufs := range frames {
		v, err := s.Beamform(bufs)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// Stream beamforms n frames through one reused output volume: src produces
// the echo buffers of each frame, sink consumes the beamformed volume
// before the next frame overwrites it. This is the constant-memory serving
// shape — per-frame cost is one src call, one beamform, one sink call.
func (s *Session) Stream(n int, src func(frame int) ([]rf.EchoBuffer, error), sink func(frame int, v *Volume) error) error {
	out := &Volume{Vol: s.eng.Cfg.Vol, Data: make([]float64, s.eng.Cfg.Vol.Points())}
	for i := 0; i < n; i++ {
		bufs, err := src(i)
		if err != nil {
			return fmt.Errorf("frame %d source: %w", i, err)
		}
		if err := s.BeamformInto(out, bufs); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if err := sink(i, out); err != nil {
			return fmt.Errorf("frame %d sink: %w", i, err)
		}
	}
	return nil
}

// StreamCompound is Stream's compound form: src produces the per-transmit
// echo sets of each frame, sink consumes the compounded volume before the
// next frame overwrites it.
func (s *Session) StreamCompound(n int, src func(frame int) ([][]rf.EchoBuffer, error), sink func(frame int, v *Volume) error) error {
	out := &Volume{Vol: s.eng.Cfg.Vol, Data: make([]float64, s.eng.Cfg.Vol.Points())}
	for i := 0; i < n; i++ {
		txBufs, err := src(i)
		if err != nil {
			return fmt.Errorf("frame %d source: %w", i, err)
		}
		if err := s.BeamformCompoundInto(out, txBufs); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if err := sink(i, out); err != nil {
			return fmt.Errorf("frame %d sink: %w", i, err)
		}
	}
	return nil
}

// Close stops the worker pool. The session is unusable afterwards; Close is
// idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.start {
		close(ch)
	}
}
