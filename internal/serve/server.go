// Server: the RF-over-HTTP face of the frame scheduler. A frame of echo
// samples is POSTed as self-describing binary wire frames (internal/wire:
// i16 ADC-native, f32, or f64 payloads in length-prefixed chunks, one frame
// per transmit, concatenated). Uploads decode incrementally: for a
// precision=i16 session an i16 frame lands in a guarded int16 plane
// without any float conversion at all, the near-memcpy ingest; every other
// frame decodes into float64 echo buffers (exact for f64, widened exactly
// for f32 and i16). The frame's queue slot is reserved once its first
// header checks out, before the payload finishes arriving, so decode
// overlaps the scheduler's backlog. The beamformed volume (or one scanline
// of it) returns as binary float64 or, negotiated, float32 at half the
// reply bandwidth. /v1/healthz answers liveness probes and /v1/stats
// exposes occupancy, lane wait percentiles, shared-cache hit rates and wire
// transport counters.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// ServerConfig assembles a Server.
type ServerConfig struct {
	// Scheduler serves the sessions: one hot session per geometry, requests
	// queued into per-geometry lanes and dispatched one frame at a time.
	// Required.
	Scheduler *Scheduler
	// MaxBodyBytes caps one request body (all transmits together).
	// <=0 defaults to 256 MiB — a paper-scale frame is 10 000 elements ×
	// ~8500 samples × 8 B ≈ 650 MiB, so paper-scale serving raises this.
	MaxBodyBytes int64
	// AcquireTimeout bounds how long a request may queue for a session
	// before 503. <=0 defaults to 10 s.
	AcquireTimeout time.Duration
}

// deadlineGrace is how far past a client's own deadline the HTTP handler
// keeps waiting, so the scheduler's expiry purge gets to classify the
// frame (504, counted as expired) rather than racing the handler's
// generic queue timeout at the exact deadline instant.
const deadlineGrace = 50 * time.Millisecond

// Server is an http.Handler exposing the beamform scheduler under /v1/:
//
//	POST /v1/beamform   RF wire frames → volume/scanline
//	GET  /v1/healthz    liveness (503 + drain progress while draining)
//	GET  /v1/stats      scheduler + shared-cache + wire statistics (JSON)
//	GET  /v1/plans      live-geometry export as canonical queries (the
//	                    cluster handoff source — answers during drain)
//	POST /v1/prewarm    handoff import: build + warm one geometry ahead of
//	                    its traffic (202 Accepted)
//
// /v1/beamform query parameters:
//
//	spec=reduced|paper   base Table I geometry (default reduced)
//	elemx,elemy          element-grid overrides
//	ftheta,fphi,fdepth   focal-grid overrides
//	arch=tablefree|tablesteer|exact   delay architecture (default tablefree)
//	precision=float64|i16   session kernel (default float64, the
//	                     bit-identical golden kernel; i16 is the ADC-native
//	                     fixed-point kernel — pair it with fmt=i16 for the
//	                     zero-conversion ingest path)
//	window=hann|rect                  receive apodization (default hann)
//	budget=N             delay-cache byte budget (default -1 = full residency;
//	                     "none" disables caching)
//	transmits=N          axial compounding set size; the body concatenates
//	                     N frames in transmit order
//	out=volume|scanline  response payload (default volume)
//	theta,phi            scanline grid indices (default volume center)
//	fmt=i16|f32|f64      the frame encoding the client sends (optional: each
//	                     frame header names its own encoding)
//	resp=f64|f32         response sample encoding (default f64; f32 halves
//	                     reply bandwidth — equivalently send Accept:
//	                     application/x-ultrabeam-f32)
//	lane=interactive|bulk   scheduling priority (default interactive,
//	                     "cine" aliases bulk). The X-Ultrabeam-Lane header
//	                     takes precedence over the parameter, so a proxy can
//	                     reclassify traffic without rewriting URLs.
//
// The body is one internal/wire frame per transmit (header: elements,
// window, encoding, transmit index/count; payload: length-prefixed chunks)
// whose geometry is validated against the request before any payload is
// decoded; samples are element-major in the xdcr.Array row order
// (ej·NX+ei). Responses are binary little-endian samples in the negotiated
// encoding with the grid shape in X-Ultrabeam-* headers.
type Server struct {
	cfg ServerConfig
	mux *http.ServeMux

	// drainCh closes when Shutdown begins: the in-band signal stream
	// connections watch to send GOAWAY at the next compound boundary.
	drainCh   chan struct{}
	drainOnce sync.Once

	// streamFrameTimeout is StreamFrameTimeout and maxStreams MaxStreams;
	// fields so that a test can shorten them on one instance.
	streamFrameTimeout time.Duration
	maxStreams         int
	// openStreams counts the cine connections past the stream cap's check.
	openStreams atomic.Int64
}

// NewServer wires the handler tree over the scheduler.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Scheduler == nil {
		return nil, errors.New("serve: ServerConfig needs a Scheduler")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = 10 * time.Second
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), drainCh: make(chan struct{}),
		streamFrameTimeout: StreamFrameTimeout, maxStreams: MaxStreams}
	s.mux.HandleFunc("POST /v1/beamform", s.handleBeamform)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/plans", s.handlePlans)
	s.mux.HandleFunc("POST /v1/prewarm", s.handlePrewarm)
	return s, nil
}

// Bounds on what a connection may hold without sending a request: a client
// gets HTTPReadHeaderTimeout to finish its request line and headers, and a
// keep-alive connection with no request in flight is closed after
// HTTPIdleTimeout. Bodies are not timed — a 17.4 MB f64 frame on a slow
// link is legitimate and MaxBodyBytes already sizes it — so neither bound
// can cut an upload or a beamform in progress.
const (
	HTTPReadHeaderTimeout = 10 * time.Second
	HTTPIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server both daemons (usbeamd, usbeamrouter)
// listen with: handler h on addr under the header and idle bounds above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: HTTPReadHeaderTimeout,
		IdleTimeout:       HTTPIdleTimeout,
	}
}

// Shutdown drains the server gracefully: new frames are refused with 503
// + Retry-After (ErrDraining), open cine streams get an in-band GOAWAY at
// their next compound boundary, /healthz flips to 503 with drain progress
// so a router deroutes, and the call blocks until every queued frame has
// finished (per lane, in priority order — nothing queued is dropped) or
// ctx cancels. Idempotent; pair it with closing the listeners (see
// cmd/usbeamd's SIGTERM path).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drainCh) })
	return s.cfg.Scheduler.Drain(ctx)
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// wireRec returns the scheduler's transport recorder.
func (s *Server) wireRec() *wireRecorder { return &s.cfg.Scheduler.wire }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		// 503 + progress: a router health-checking this endpoint deroutes
		// the node while it empties out, and an operator can watch the
		// queued count fall to zero.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"status\":\"draining\",\"queued\":%d}\n", s.cfg.Scheduler.QueuedFrames())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.cfg.Scheduler.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handlePlans exports the scheduler's live geometries as canonical queries —
// the warm-store handoff source. Deliberately not gated on draining: a
// draining node is exactly the one whose geometries the router wants.
func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.cfg.Scheduler.ExportPlans()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handlePrewarm imports one geometry: body {"query": "..."} as exported by
// /v1/plans. Unknown fields are ignored, so the per-transmit "quota" an
// older exporter still sends is accepted and has no effect. Replies 202 —
// the fill proceeds in the background; the geometry serves (lazily
// filling) immediately.
func (s *Server) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	var plan ResidencyPlan
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&plan); err != nil {
		s.writeError(w, badRequest("prewarm body: %v", err))
		return
	}
	q, err := url.ParseQuery(plan.Query)
	if err != nil {
		s.writeError(w, badRequest("prewarm query: %v", err))
		return
	}
	opts, perr := ParseOptions(q, nil)
	if perr != nil {
		s.writeError(w, perr)
		return
	}
	if err := s.cfg.Scheduler.Prewarm(opts.Request); err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"status\":\"warming\",\"fingerprint\":%q}\n", opts.Request.Fingerprint())
}

// httpError is a status-carrying error for request parsing. cause, when
// set, keeps the original error chain reachable through errors.Is — the
// stream transport uses it to tell a connection that died mid-upload
// (io.ErrUnexpectedEOF) from a protocol violation.
type httpError struct {
	status int
	msg    string
	cause  error
}

func (e *httpError) Error() string { return e.msg }
func (e *httpError) Unwrap() error { return e.cause }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func tooLarge(format string, args ...any) *httpError {
	return &httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf(format, args...)}
}

// countingReader counts bytes drawn from the underlying reader — the wire
// bytes-received metric measures what actually crossed the transport,
// framing included.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// wireErr maps a wire decode error onto an HTTP status: a tripped
// http.MaxBytesReader (the cap on the whole request body) is 413, any
// other malformed frame is 400.
func wireErr(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return tooLarge("body exceeds %d bytes", mbe.Limit)
	}
	return &httpError{status: http.StatusBadRequest, msg: err.Error(), cause: err}
}

// checkWireHeader validates a frame header against the request geometry
// and its transmit position — rejecting on shape, order or size before
// one payload byte is decoded. win is transmit 0's window (ignored at
// t == 0, where the header sets it).
func checkWireHeader(h wire.Header, req SessionRequest, wantTx, t, win int, maxBytes int64) error {
	if elements := req.Spec.Elements(); h.Elements != elements {
		return badRequest("frame has %d elements; the request geometry has %d", h.Elements, elements)
	}
	if h.TxCount != wantTx {
		return badRequest("frame declares %d transmits; the request compounds %d", h.TxCount, wantTx)
	}
	if h.TxIndex != t {
		return badRequest("transmit %d arrived where %d was expected (frames are sent in transmit order)", h.TxIndex, t)
	}
	if t > 0 && h.Window != win {
		return badRequest("transmit %d window %d differs from transmit 0 window %d", t, h.Window, win)
	}
	if h.PayloadBytes() > maxBytes {
		return tooLarge("frame payload of %d bytes exceeds %d", h.PayloadBytes(), maxBytes)
	}
	return nil
}

// decodeWireFrame streams a checked frame's payload into f, picking f's
// form on the first transmit. An i16 frame bound for a precision=i16
// session decodes straight into a guarded int16 plane: the quantized
// samples on the wire are exactly what the fixed-point kernel gathers, so
// ingest is a near-memcpy and the header's scale rides along. Any other
// frame decodes into float64 echo buffers (an i16 session quantizes those
// in its convert phase); a compound that switches encodings after an i16
// transmit 0 is rejected by the decoder's encoding check.
func decodeWireFrame(body io.Reader, h wire.Header, req SessionRequest, wantTx, t int, f *beamform.Frame) error {
	elements := req.Spec.Elements()
	if t == 0 {
		if req.Config.Precision == beamform.PrecisionInt16 && h.Encoding == wire.EncodingI16 && h.Window <= delay.MaxEchoWindow {
			f.Planes, f.Scales, f.Win = make([][]int16, wantTx), make([]float32, wantTx), h.Window
		} else {
			f.Bufs = make([][]rf.EchoBuffer, wantTx)
		}
	}
	if f.Planes != nil {
		plane := make([]int16, elements*(f.Win+1)) // fresh: guard slots zero
		if err := wire.DecodePlaneI16(body, h, plane, f.Win+1); err != nil {
			return wireErr(err)
		}
		f.Planes[t], f.Scales[t] = plane, h.Scale
		return nil
	}
	samples := make([]float64, elements*h.Window)
	if err := wire.DecodeF64(body, h, samples); err != nil {
		return wireErr(err)
	}
	bufs := make([]rf.EchoBuffer, elements)
	for d := 0; d < elements; d++ {
		bufs[d] = rf.EchoBuffer{Samples: samples[d*h.Window : (d+1)*h.Window : (d+1)*h.Window]}
	}
	f.Bufs[t] = bufs
	return nil
}

// readFirstHeader reads and checks the header of a compound's transmit 0 —
// everything a transport needs before it reserves a queue slot, so a body
// that is not a UBF1 frame for this geometry never touches the scheduler.
func (s *Server) readFirstHeader(cr *countingReader, req SessionRequest) (wire.Header, error) {
	h, err := wire.ReadHeader(cr)
	if err != nil {
		return h, wireErr(err)
	}
	return h, checkWireHeader(h, req, txCount(req), 0, 0, s.cfg.MaxBodyBytes)
}

// readCompound decodes the rest of one compound — wantTx wire frames in
// transmit order — whose transmit-0 header h readFirstHeader has taken
// from cr, recording ingest metrics per frame (bytes counted from the
// start of each frame, header included). Before each later frame's header
// it calls next with the frame's start time; the stream transport re-arms
// its per-frame read deadline there (nil on HTTP, whose body is bounded by
// MaxBodyBytes instead).
func (s *Server) readCompound(cr *countingReader, h wire.Header, start time.Time, req SessionRequest, next func(time.Time)) (beamform.Frame, error) {
	var f beamform.Frame
	wantTx, win := txCount(req), h.Window
	read := int64(0)
	for t := 0; t < wantTx; t++ {
		if t > 0 {
			start = time.Now()
			if next != nil {
				next(start)
			}
			var err error
			if h, err = wire.ReadHeader(cr); err != nil {
				return f, wireErr(err)
			}
			if err := checkWireHeader(h, req, wantTx, t, win, s.cfg.MaxBodyBytes); err != nil {
				return f, err
			}
		}
		if err := decodeWireFrame(cr, h, req, wantTx, t, &f); err != nil {
			return f, err
		}
		s.wireRec().recordIngest(h.Encoding, cr.n-read, time.Since(start), f.Planes != nil)
		read = cr.n
	}
	return f, nil
}

func (s *Server) handleBeamform(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	opts, err := ParseOptions(r.URL.Query(), r.Header)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, scanline, it, ip, respEnc := opts.Request, opts.Scanline, opts.Theta, opts.Phi, opts.Resp
	// A client deadline tighter than the server's own queue bound also
	// caps how long we hold the request. The small grace past the deadline
	// lets the scheduler notice and classify the expiry (504, counted)
	// instead of the wait lapsing into a generic queue timeout at the
	// exact same instant.
	waitBudget := s.cfg.AcquireTimeout
	if d := req.Deadline + deadlineGrace; req.Deadline > 0 && d < waitBudget {
		waitBudget = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), waitBudget)
	defer cancel()

	// Streaming ingest: once the first header checks out, reserve the queue
	// slot (and start a cold geometry's session build) before the payload
	// is decoded, so the upload overlaps the backlog ahead of it.
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	decodeStart := time.Now()
	h, err := s.readFirstHeader(cr, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	pend, err := s.cfg.Scheduler.Begin(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	f, err := s.readCompound(cr, h, decodeStart, req, nil)
	if err != nil {
		pend.Abort()
		s.writeError(w, err)
		return
	}
	pend.complete(f)
	vol, err := pend.Wait(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	data := vol.Data
	if scanline {
		data = vol.Scanline(it, ip)
	}
	size := respEnc.SampleBytes()
	hdr := w.Header()
	hdr.Set("Content-Type", "application/octet-stream")
	hdr.Set("X-Ultrabeam-Theta", strconv.Itoa(vol.Vol.Theta.N))
	hdr.Set("X-Ultrabeam-Phi", strconv.Itoa(vol.Vol.Phi.N))
	hdr.Set("X-Ultrabeam-Depth", strconv.Itoa(vol.Vol.Depth.N))
	hdr.Set("X-Ultrabeam-Encoding", respEnc.String())
	if scanline {
		hdr.Set("X-Ultrabeam-Scanline", fmt.Sprintf("%d,%d", it, ip))
	}
	hdr.Set("X-Ultrabeam-Elapsed-Ms", strconv.FormatFloat(time.Since(start).Seconds()*1e3, 'f', 3, 64))
	hdr.Set("Content-Length", strconv.Itoa(size*len(data)))
	out := make([]byte, size*len(data))
	wire.PutVolumeSamples(out, respEnc, data)
	s.wireRec().recordReply(int64(len(out)))
	w.Write(out)
}

// txCount returns the compound set size of a request.
func txCount(req SessionRequest) int {
	if n := len(req.Config.Transmits); n > 0 {
		return n
	}
	return 1
}

// writeError maps backend and parse errors onto HTTP statuses: overload,
// drain and queue timeout are 503 (retryable backpressure) with a
// Retry-After derived from live queue depth and dispatch rate — not a
// constant — so clients back off proportionally to how far behind the
// node actually is. An expired client deadline is 504; parse errors 400.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		http.Error(w, he.msg, he.status)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.Scheduler.RetryAfterSeconds()))
		w.Header().Set("X-Ultrabeam-Draining", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrOverloaded), errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.Scheduler.RetryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrExpired):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
