// Session: the persistent multi-frame form of the engine. PR 1 made one
// frame fast (block datapath); a cine sequence calls the beamformer once
// per frame, and delays depend only on geometry — so the per-frame setup
// (worker spawn, nappe buffers, output volume) and, with a delay-cache
// attachment, delay generation itself are all amortizable across frames.
// Session keeps a worker pool and per-worker nappe buffers alive between
// frames, and its steady-state Run performs no allocation at all: frame
// dispatch is a token send per worker on prebuilt channels.
//
// The session's one delay datapath is narrow: workers fill and
// consume delay.Block16 selection indices — 2 bytes per delay instead of
// 8 — resident in the delay cache or filled per nappe. They are exact for
// any echo window within delay.MaxEchoWindow (every Table I scale window;
// see Precision). A longer window takes the same blocks through the float64
// kernel, except that a nappe holding the saturated index math.MaxInt16 —
// which may stand for a delay inside such a window — is beamformed from the
// scalar law for that transmit, so correctness never depends on the
// geometry. The session runs one of two kernels:
// PrecisionFloat64 gathers the float64 echo buffers directly (the golden
// kernel), and PrecisionInt16 gathers a guarded int16 plane — 2 B/sample,
// one scale per frame×transmit — accumulating in int32 fixed point through
// the purego/native kernel_i16 split. A Frame carries either form: the
// plane arrives from the caller (the i16 wire ingest) or is quantized from
// echo buffers by a convert phase dispatched before the accumulate phase.
//
// Multi-transmit compounding (PR 4): a session built over N per-transmit
// providers beamforms each depth slice once per transmit — the first
// transmit stores, later transmits add — so one pass over the volume
// coherently compounds N insonifications. The accumulation order per voxel
// is transmit-major and identical to summing N single-transmit volumes in
// transmit order, which keeps the compounded float64 frame bit-identical to
// the explicit sequential sum (the compounding invariance contract).
package beamform

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/faultpoint"
	"ultrabeam/internal/rf"
)

// batchFault fails a frame's dispatch before it touches any output — the
// chaos harness's stand-in for a kernel-level failure. Inert (one
// atomic load) unless a schedule arms it.
var batchFault = faultpoint.New("beamform.batch")

// steerRoute is one transmit's fused TABLESTEER route: the generator's
// delay.SteerSource, the shared operands it returned at session
// construction (nil: the generator offers none, and the transmit always
// fills blocks) and the AVX-512 tile body's row offsets for them
// (Engine.steerTileOffsets), shared by every transmit with the same
// operands.
type steerRoute struct {
	src  delay.SteerSource
	ops  *delay.SteerOperands
	offs []int32
}

// sessionJob tells the worker pool what a dispatched token means.
type sessionJob int

const (
	jobAccumulate sessionJob = iota // beamform the frame's depth slices
	jobConvert                      // quantize echo buffers to the i16 kernel plane
)

// Session is a reusable multi-frame beamformer: one geometry, one delay
// generator per transmit, at most one delay-cache attachment, a persistent
// worker pool. Run is the one way it beamforms a frame, single or compound,
// echo buffers or int16 planes; Close releases the workers. A Session must
// not be used concurrently — one frame is in flight at a time (the
// parallelism is inside the frame).
type Session struct {
	eng     *Engine
	gens    []delay.BlockProvider // one generator per transmit
	cache   *delaycache.Cache     // the resident blocks of every transmit; nil when uncached
	steers  []steerRoute          // per transmit; ops non-nil where the fused steer route exists
	ryLen   int                   // per-worker fused operand scratch, 0 when no transmit has the route
	layout  delay.Layout
	workers int

	start []chan struct{} // per-worker frame triggers
	done  chan struct{}   // workers report job completion

	// Per-frame shared state, published before the start tokens and
	// therefore visible to workers via the channel happens-before edge.
	job    sessionJob
	frame  Frame   // the frame in flight
	out    *Volume // its destination volume
	narrow bool    // every int16 delay index is exact for this frame's window
	useI16 bool    // accumulate through the fixed-point i16 kernel this frame

	// The i16 kernel's guarded echo planes (PrecisionInt16) for buffer
	// frames: one guarded row of flatWin+1 quantized samples per element,
	// guard slots permanently zero (the kernel's out-of-window target),
	// transmit t's plane at t·planeLen, rebuilt by the convert job and
	// reused across frames of the same window length; plus one kernel
	// rescale per transmit (i16Scale[t] = Engine.i16VoxelScale of the
	// plane's quantization step), written before the accumulate phase reads
	// it — by the convert job, or from a plane frame's Scales. i16Tab is the
	// kernel's operand table for the current window (Engine.i16GatherTable).
	flatI16  []int16
	flatWin  int
	planeLen int
	i16Scale []float64
	i16Tab   *i16Table

	// beamformed is atomic: a serving frontend scrapes Frames() from stats
	// goroutines while the owning goroutine beamforms.
	beamformed atomic.Int64
	closed     bool
}

// NewSession builds a session over one block generator per transmit of a
// compounding set (a single entry for one insonification; derive a set
// with delay.ForTransmits and lift plain Providers with delay.AsBlock) and,
// when cache is non-nil, one delay-cache attachment whose store fills from
// those same generators (Shared.Generators): each (transmit, nappe) block
// comes from the attachment when resident and from gens[t] otherwise. It
// spawns the worker pool; the caller Closes the session when the cine
// sequence ends. The session does not Detach the attachment.
func (e *Engine) NewSession(gens []delay.BlockProvider, cache *delaycache.Cache) (*Session, error) {
	layout := e.layout()
	if !layout.Valid() {
		return nil, fmt.Errorf("beamform: invalid nappe layout %v", layout)
	}
	if len(gens) == 0 {
		return nil, errors.New("beamform: no delay providers")
	}
	for t, g := range gens {
		if g == nil || g.Layout() != layout {
			return nil, fmt.Errorf("beamform: transmit %d generator does not fill layout %v", t, layout)
		}
	}
	if cache != nil {
		st := cache.Shared()
		if st.Layout() != layout || st.Transmits() != len(gens) || st.Depths() != e.Cfg.Vol.Depth.N {
			return nil, fmt.Errorf("beamform: cache holds %d transmits × %d nappes of %v, session needs %d × %d of %v",
				st.Transmits(), st.Depths(), st.Layout(), len(gens), e.Cfg.Vol.Depth.N, layout)
		}
	}
	s := &Session{
		eng: e, layout: layout, gens: gens, cache: cache,
		steers:   make([]steerRoute, len(gens)),
		workers:  e.workerCount(),
		done:     make(chan struct{}),
		i16Scale: make([]float64, len(gens)),
	}
	for t, g := range gens {
		// A build or host without the fused body never asks for operands,
		// so it never builds the generator's tiled x table.
		if src, ok := g.(delay.SteerSource); ok && fusedSteer() {
			if ops := src.SteerOperands(); ops != nil && len(ops.XOff) == layout.NTheta*layout.NPhi {
				s.steers[t] = steerRoute{src: src, ops: ops}
				for _, r := range s.steers[:t] {
					if r.ops == ops {
						s.steers[t].offs = r.offs
					}
				}
				if s.steers[t].offs == nil {
					s.steers[t].offs = e.steerTileOffsets(ops)
				}
				s.ryLen = (layout.NPhi + 1) * layout.VoxelStride()
			}
		}
	}
	s.start = make([]chan struct{}, s.workers)
	for w := 0; w < s.workers; w++ {
		s.start[w] = make(chan struct{}, 1)
		go s.worker(w)
	}
	return s, nil
}

// layout is the nappe block geometry of the engine's grid and aperture.
func (e *Engine) layout() delay.Layout {
	return delay.Layout{
		NTheta: e.Cfg.Vol.Theta.N, NPhi: e.Cfg.Vol.Phi.N,
		NX: e.Cfg.Arr.NX, NY: e.Cfg.Arr.NY,
	}
}

// worker is the persistent per-worker loop: it owns one reusable narrow
// nappe buffer, one int32 voxel row (the fixed-point kernel's accumulators)
// and, when a transmit has the fused steer route, the route's per-nappe
// operand rows, for the life of the session, and serves
// whichever job each frame dispatches — quantizing its stripe of echo
// planes, or beamforming depth slices w, w+workers, ... of the frame.
func (s *Session) worker(w int) {
	// The block buffer is also the tile-native kernels' expansion scratch,
	// which needs a whole tile's rows on a nappe of fewer voxels.
	buf16 := make(delay.Block16, max(s.layout.BlockLen(), 16*s.layout.VoxelStride()))[:s.layout.BlockLen()]
	row := make([]int32, s.layout.NTheta*s.layout.NPhi)
	ry := make([]int32, s.ryLen)
	for range s.start[w] {
		if s.job == jobConvert {
			s.convertStripeI16(w)
		} else {
			s.accumulateStripe(w, buf16, row, ry)
		}
		s.done <- struct{}{}
	}
}

// convertStripeI16 quantizes the frame's echo buffers into the session's
// guarded int16 planes, striping over whole transmit planes rather than
// element rows: the quantization scale is a reduction over the entire
// plane (the peak pass), so a plane is one worker's indivisible unit.
// Transmit t's plane starts at t·planeLen and its kernel rescale lands in
// i16Scale[t].
func (s *Session) convertStripeI16(w int) {
	for t := w; t < len(s.gens); t += s.workers {
		scale := rf.QuantizePlaneI16(s.planeI16(t), s.frame.Bufs[t], s.flatWin)
		s.i16Scale[t] = s.eng.i16VoxelScale(scale)
	}
}

// accumulateStripe beamforms depth slices w, w+workers, ... of the frame:
// for each slice, every transmit's delays are obtained — the cache's
// resident block consumed in place in the form the store holds it (the
// worker's block is then the kernel's expansion scratch), else the
// transmit's generator filling the worker's block — and the
// precision-selected kernel runs with the first transmit storing and later
// transmits adding, so the per-voxel accumulation order is transmit-major.
// On a frame whose window is beyond delay.MaxEchoWindow, a block holding
// math.MaxInt16 runs beamformNappe instead: the saturated index stands for
// a delay the window may hold. On the i16 kernel a non-resident nappe of a
// transmit with the fused steer route generates no block at all: its
// per-nappe operand rows are built and the fused body runs, which is
// bit-identical to filling and accumulating.
func (s *Session) accumulateStripe(w int, buf16 delay.Block16, row, ry []int32) {
	for id := w; id < s.eng.Cfg.Vol.Depth.N; id += s.workers {
		for t := range s.gens {
			add := t > 0
			var nat *delaycache.Native
			if s.cache != nil {
				nat = s.cache.Nappe16T(t, id)
			}
			var blk delay.Block16
			fused := nat == nil && s.useI16 && s.steers[t].ops != nil && fusedSteer()
			if fused {
				s.steers[t].src.SteerRows(id, ry)
			} else if nat == nil {
				s.gens[t].FillNappe16(id, buf16)
				blk = buf16
			}
			switch {
			case !s.useI16 && !s.narrow && (nat != nil && nat.HasMax || nat == nil && slices.Contains(blk, math.MaxInt16)):
				s.eng.beamformNappe(s.gens[t], s.frame.Bufs[t], id, s.out, add)
			case !s.useI16 && nat != nil:
				s.eng.accumulateNativeF64(nat, buf16[:cap(buf16)], s.frame.Bufs[t], id, s.out, add)
			case !s.useI16:
				s.eng.accumulateNappe16(blk, s.frame.Bufs[t], id, s.out, add)
			case fused:
				s.eng.accumulateSteerI16(ry, &s.steers[t], s.planeI16(t), s.i16Tab, id, s.out, s.i16Scale[t], add, row)
			case nat != nil:
				s.eng.accumulateNativeI16(nat, buf16[:cap(buf16)], s.planeI16(t), s.i16Tab, id, s.out, s.i16Scale[t], add, row)
			default:
				s.eng.accumulateNappe16I16(blk, s.planeI16(t), s.i16Tab, id, s.out, s.i16Scale[t], add, row)
			}
		}
	}
}

// planeI16 returns the guarded int16 plane of transmit t of the frame in
// flight: a plane frame's own, or the convert phase's.
func (s *Session) planeI16(t int) []int16 {
	if p := s.frame.Planes; p != nil {
		return p[t]
	}
	return s.flatI16[t*s.planeLen : (t+1)*s.planeLen]
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
func (s *Session) Frames() int64 { return s.beamformed.Load() }

// Frame is one compound frame in the form it reaches the session: float64
// echo buffers (Bufs[t][element], the golden form every precision takes),
// or guarded int16 planes — the layout the convert phase builds and
// wire.DecodePlaneI16 streams an i16 frame into. Planes[t] holds element
// d's Win samples at d·(Win+1), with the guard slot at position Win of
// each row zero (the kernel's clamp target: a non-zero guard corrupts
// out-of-window gathers), and sample = int16·Scales[t]. Exactly one of
// Bufs and Planes is set.
type Frame struct {
	Bufs   [][]rf.EchoBuffer
	Planes [][]int16
	Scales []float32
	Win    int
}

// Shape is everything the session's datapath decision reads off a frame:
// frames of equal Shape take the same kernel.
type Shape struct {
	Transmits, Elements int
	Win                 int  // the longest echo window
	Uniform             bool // every row holds Win samples (a plane needs one stride)
	Planes              bool // the frame is in the int16 plane form
}

// Shape classifies f. It reads only lengths, never samples.
func (f Frame) Shape() Shape {
	if f.Planes != nil {
		sh := Shape{Transmits: len(f.Planes), Win: f.Win, Uniform: true, Planes: true}
		if len(f.Planes) > 0 && f.Win >= 0 {
			sh.Elements = len(f.Planes[0]) / (f.Win + 1)
		}
		return sh
	}
	sh := Shape{Transmits: len(f.Bufs), Uniform: true}
	if len(f.Bufs) > 0 {
		sh.Elements = len(f.Bufs[0])
	}
	for t, bufs := range f.Bufs {
		for d, b := range bufs {
			n := len(b.Samples)
			if t+d > 0 && n != sh.Win {
				sh.Uniform = false
			}
			sh.Win = max(sh.Win, n)
		}
	}
	return sh
}

// datapath is the session's one kernel decision for frames of shape sh:
// narrow when every int16 selection index, saturated ones included, is
// exact for every window, i16 when
// the fixed-point kernel runs. That takes a uniform window whose plane
// fits the int32 row offsets — one plane at a time, since the kernel
// gathers from one transmit plane per call — on a PrecisionInt16
// engine whose aperture met the int32 accumulator bound; anything else
// runs the exact float64 kernel. It reads only the shape, never samples.
func (e *Engine) datapath(sh Shape) (narrow, i16 bool) {
	narrow = sh.Win <= delay.MaxEchoWindow
	return narrow, narrow && sh.Uniform && sh.Elements*(sh.Win+1) <= math.MaxInt32 &&
		e.Cfg.Precision == PrecisionInt16 && e.i16OK
}

// Run beamforms one compound frame into dst, reusing dst.Data in place:
// each depth slice runs store-then-add in transmit order, so the volume is
// the coherent sum of the per-transmit beamformations (a single-transmit
// frame is a compound of one). dst must carry the session's grid. Once a
// window's first frame has sized the i16 planes (and warmed any cache), Run
// allocates nothing for that window's frames. The first frame after a
// window change allocates the i16 planes and the kernel's operand table
// afresh. A plane frame is
// bit-identical to the buffer frame that quantizes to the same int16
// samples and scales. It needs Precision=i16 and a window within
// delay.MaxEchoWindow; on an engine whose aperture defeated the int32
// accumulator bound it is widened to freshly allocated float64 buffers,
// exactly as wire.DecodeF64 widens an i16 payload, and runs the float64
// kernel, so such frames allocate every time.
func (s *Session) Run(dst *Volume, f Frame) error {
	if s.closed {
		return errors.New("beamform: session is closed")
	}
	if err := batchFault.Err(); err != nil {
		return err
	}
	if dst == nil || len(dst.Data) != s.eng.Cfg.Vol.Points() {
		return fmt.Errorf("beamform: destination volume needs %d points", s.eng.Cfg.Vol.Points())
	}
	if dst.Vol != s.eng.Cfg.Vol {
		return fmt.Errorf("beamform: destination grid %v is not the session grid %v",
			dst.Vol, s.eng.Cfg.Vol)
	}
	if err := s.checkFrame(f); err != nil {
		return fmt.Errorf("beamform: %w", err)
	}
	sh := f.Shape()
	narrow, i16 := s.eng.datapath(sh)
	if sh.Planes && !i16 {
		f = widen(f)
	}
	s.frame, s.out, s.narrow, s.useI16 = f, dst, narrow, i16
	if i16 {
		s.sizePlanes(sh.Win, sh.Elements*(sh.Win+1))
		if sh.Planes {
			for t, sc := range f.Scales {
				s.i16Scale[t] = s.eng.i16VoxelScale(sc)
			}
		} else {
			if s.flatI16 == nil {
				s.flatI16 = make([]int16, len(s.gens)*s.planeLen)
			}
			s.dispatch(jobConvert)
		}
	}
	s.dispatch(jobAccumulate)
	// Drop the references, so the session does not pin a caller's echoes
	// between frames.
	s.frame, s.out = Frame{}, nil
	s.beamformed.Add(1)
	return nil
}

// checkFrame validates one frame against the session's transmits and
// aperture.
func (s *Session) checkFrame(f Frame) error {
	nTx, elems := len(s.gens), s.eng.Cfg.Arr.Elements()
	if (f.Bufs == nil) == (f.Planes == nil) {
		return errors.New("a frame carries exactly one of echo buffers and int16 planes")
	}
	if f.Bufs != nil {
		if len(f.Bufs) != nTx {
			return fmt.Errorf("%d echo sets for %d transmits", len(f.Bufs), nTx)
		}
		for t, bufs := range f.Bufs {
			if len(bufs) != elems {
				return fmt.Errorf("transmit %d has %d echo buffers for %d elements", t, len(bufs), elems)
			}
		}
		return nil
	}
	if s.eng.Cfg.Precision != PrecisionInt16 {
		return fmt.Errorf("i16 plane frames need Precision=i16 (have %s)", s.eng.Cfg.Precision)
	}
	if f.Win <= 0 || f.Win > delay.MaxEchoWindow {
		return fmt.Errorf("plane window %d outside (0, %d]", f.Win, delay.MaxEchoWindow)
	}
	if len(f.Planes) != nTx || len(f.Scales) != nTx {
		return fmt.Errorf("%d planes and %d scales for %d transmits", len(f.Planes), len(f.Scales), nTx)
	}
	for t, p := range f.Planes {
		if len(p) != elems*(f.Win+1) {
			return fmt.Errorf("transmit %d plane has %d int16s (want %d elements × %d)", t, len(p), elems, f.Win+1)
		}
		if sc := f.Scales[t]; !(sc > 0) || math.IsInf(float64(sc), 0) {
			return fmt.Errorf("transmit %d scale %v is not a positive finite factor", t, sc)
		}
	}
	return nil
}

// widen returns a plane frame as float64 echo buffers, sample =
// float64(int16)·float64(scale) — the exact widening wire.DecodeF64
// applies to an i16 payload, so a widened frame beamforms bit-identically
// to the same wire frame decoded to float64.
func widen(f Frame) Frame {
	out := Frame{Bufs: make([][]rf.EchoBuffer, len(f.Planes))}
	for t, p := range f.Planes {
		elems, stride, sc := len(p)/(f.Win+1), f.Win+1, float64(f.Scales[t])
		samples := make([]float64, elems*f.Win)
		bufs := make([]rf.EchoBuffer, elems)
		for d := range bufs {
			row := samples[d*f.Win : (d+1)*f.Win : (d+1)*f.Win]
			for i, v := range p[d*stride : d*stride+f.Win] {
				row[i] = float64(v) * sc
			}
			bufs[d].Samples = row
		}
		out.Bufs[t] = bufs
	}
	return out
}

// BeamformBatch runs float64 echo sets through Run frame by frame:
// batch[k][t] holds the echo buffers of frame k recorded after
// insonification t, and dsts[k] receives its volume. It is a loop over Run
// kept for the benchmark's per-layer replay; nothing else calls it.
func (s *Session) BeamformBatch(dsts []*Volume, batch [][][]rf.EchoBuffer) error {
	if len(dsts) != len(batch) {
		return fmt.Errorf("beamform: %d destination volumes for %d frames", len(dsts), len(batch))
	}
	for k, tx := range batch {
		if err := s.Run(dsts[k], Frame{Bufs: tx}); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
	}
	return nil
}

// BeamformBatchPlanesI16 runs guarded int16 planes through Run frame by
// frame: planes[k][t] and scales[k][t] are frame k / transmit t, every
// plane of window win, and dsts[k] receives frame k's volume. Like
// BeamformBatch it is a benchmark-only loop over Run.
func (s *Session) BeamformBatchPlanesI16(dsts []*Volume, win int, planes [][][]int16, scales [][]float32) error {
	if len(dsts) != len(planes) || len(scales) != len(planes) {
		return fmt.Errorf("beamform: %d destination volumes and %d scale sets for %d frames", len(dsts), len(scales), len(planes))
	}
	for k := range planes {
		if err := s.Run(dsts[k], Frame{Planes: planes[k], Scales: scales[k], Win: win}); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
	}
	return nil
}

// sizePlanes sets the i16 plane geometry for window win, rebuilding the
// kernel's operand table and dropping the session's own planes when the
// window changed (the next buffer frame re-sizes them).
func (s *Session) sizePlanes(win, planeLen int) {
	if s.flatWin == win && s.planeLen == planeLen {
		return
	}
	s.flatI16 = nil
	s.flatWin, s.planeLen = win, planeLen
	s.i16Tab = s.eng.i16GatherTable(win)
}

// NewVolume allocates an output volume on the session's grid — the
// destination shape Run expects. Serving callers allocate
// destinations through this instead of knowing the engine's volume
// configuration.
func (s *Session) NewVolume() *Volume {
	return &Volume{Vol: s.eng.Cfg.Vol, Data: make([]float64, s.eng.Cfg.Vol.Points())}
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
