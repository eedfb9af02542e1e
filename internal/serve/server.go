// Server: the RF-over-HTTP face of the pool or the frame scheduler. A
// frame of echo samples is POSTed either as the legacy raw little-endian
// float64 body (one multipart part per transmit for compounding) or as
// self-describing binary wire frames (internal/wire: i16 ADC-native, f32,
// or f64 payloads in length-prefixed chunks, one frame per transmit,
// concatenated — no multipart needed). Wire uploads decode incrementally:
// i16/f32 chunks convert straight into guarded float32 echo planes (no
// float64 intermediate, no whole-frame buffer) — and for a prec=i16
// session an i16 frame lands in a guarded int16 plane without any float
// conversion at all, the near-memcpy ingest — and the frame's queue slot
// is reserved before the upload finishes, so decode overlaps the
// scheduler's backlog. The beamformed volume (or one scanline of it)
// returns as binary float64 or, negotiated, float32 at half the reply
// bandwidth. /healthz answers liveness probes and /stats exposes
// occupancy, lane wait percentiles, shared-cache hit rates and wire
// transport counters.
package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
	"ultrabeam/internal/xdcr"
)

// ServerConfig assembles a Server.
type ServerConfig struct {
	// Pool serves the sessions in checkout mode: one warm session leased
	// per request. Exactly one of Pool and Scheduler must be set.
	Pool *Pool
	// Scheduler serves the sessions in scheduled mode: one hot session per
	// geometry, requests queued into per-geometry lanes and dispatched as
	// fused batches. The serving default since PR 6.
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

// Server is an http.Handler exposing the beamform pool. The versioned API
// mounts under /v1/ with the original paths kept as aliases on the same
// handlers:
//
//	POST /v1/beamform   RF frame (raw float64 or wire-framed) → volume/scanline
//	GET  /v1/healthz    liveness (503 + drain progress while draining)
//	GET  /v1/stats      pool/scheduler + shared-cache + wire statistics (JSON)
//	GET  /v1/plans      residency-plan export (scheduled mode; the cluster
//	                    handoff source — answers during drain)
//	POST /v1/prewarm    residency-plan import: build + plan + warm one
//	                    geometry ahead of its traffic (202 Accepted)
//
// /beamform query parameters:
//
//	spec=reduced|paper   base Table I geometry (default reduced)
//	elemx,elemy          element-grid overrides
//	ftheta,fphi,fdepth   focal-grid overrides
//	arch=tablefree|tablesteer|exact   delay architecture (default tablefree)
//	precision=float64|float32|wide|i16   session kernel (default float64;
//	                     i16 is the ADC-native fixed-point kernel — pair it
//	                     with fmt=i16 for the zero-conversion ingest path)
//	window=hann|rect                  receive apodization (default hann)
//	budget=N             delay-cache byte budget (default -1 = full residency;
//	                     "none" disables caching)
//	transmits=N          axial compounding set size; a raw body must then be
//	                     multipart/form-data with N parts named "transmit",
//	                     a wire body simply concatenates N frames
//	out=volume|scanline  response payload (default volume)
//	theta,phi            scanline grid indices (default volume center)
//	fmt=raw|i16|f32|f64  request body format (default raw, the legacy
//	                     headerless float64 body; i16/f32/f64 select the
//	                     wire frame format — equivalently send Content-Type
//	                     application/x-ultrabeam-frame, under which each
//	                     frame header names its own encoding)
//	resp=f64|f32         response sample encoding (default f64; f32 halves
//	                     reply bandwidth — equivalently send Accept:
//	                     application/x-ultrabeam-f32)
//	lane=interactive|bulk   scheduling priority (scheduled mode; default
//	                     interactive, "cine" aliases bulk). The
//	                     X-Ultrabeam-Lane header takes precedence over the
//	                     parameter, so a proxy can reclassify traffic
//	                     without rewriting URLs.
//
// A raw body is len(elements)·window·8 bytes of little-endian float64 echo
// samples, element-major in the xdcr.Array row order (ej·NX+ei); the
// window length is inferred from the body size. A wire body is one
// internal/wire frame per transmit (header: elements, window, encoding,
// transmit index/count; payload: length-prefixed chunks) whose geometry is
// validated against the request before any payload is decoded. Responses
// are binary little-endian samples in the negotiated encoding with the
// grid shape in X-Ultrabeam-* headers.
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

// NewServer wires the handler tree over the pool or the scheduler.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Pool == nil && cfg.Scheduler == nil {
		return nil, errors.New("serve: ServerConfig needs a Pool or a Scheduler")
	}
	if cfg.Pool != nil && cfg.Scheduler != nil {
		return nil, errors.New("serve: ServerConfig.Pool and Scheduler are exclusive (one serving mode per server)")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = 10 * time.Second
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), drainCh: make(chan struct{}),
		streamFrameTimeout: StreamFrameTimeout, maxStreams: MaxStreams}
	// The versioned API lives under /v1/; the original paths stay mounted
	// as aliases on the same handlers, so pre-/v1 clients keep working and
	// the equivalence is structural, not best-effort.
	for _, prefix := range []string{"", "/v1"} {
		s.mux.HandleFunc("POST "+prefix+"/beamform", s.handleBeamform)
		s.mux.HandleFunc("GET "+prefix+"/healthz", s.handleHealthz)
		s.mux.HandleFunc("GET "+prefix+"/stats", s.handleStats)
	}
	// Plan handoff is /v1-only: new in the clustered API, no legacy alias.
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
	if s.cfg.Scheduler != nil {
		return s.cfg.Scheduler.Drain(ctx)
	}
	return s.cfg.Pool.Drain(ctx)
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

// retryAfterSeconds is the live backoff hint for 503 responses.
func (s *Server) retryAfterSeconds() int {
	if s.cfg.Scheduler != nil {
		return s.cfg.Scheduler.RetryAfterSeconds()
	}
	return s.cfg.Pool.RetryAfterSeconds()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// wireRec returns the transport recorder of whichever backend serves.
func (s *Server) wireRec() *wireRecorder {
	if s.cfg.Scheduler != nil {
		return &s.cfg.Scheduler.wire
	}
	return &s.cfg.Pool.wire
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		// 503 + progress: a router health-checking this endpoint deroutes
		// the node while it empties out, and an operator can watch the
		// queued count fall to zero.
		remaining := 0
		if s.cfg.Scheduler != nil {
			remaining = s.cfg.Scheduler.QueuedFrames()
		} else {
			remaining = s.cfg.Pool.CheckedOut()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"status\":\"draining\",\"queued\":%d}\n", remaining)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var stats any
	if s.cfg.Scheduler != nil {
		stats = s.cfg.Scheduler.Stats()
	} else {
		stats = s.cfg.Pool.Stats()
	}
	if err := enc.Encode(stats); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handlePlans exports the scheduler's live geometries as residency plans —
// the warm-store handoff source. Deliberately not gated on draining: a
// draining node is exactly the one whose plans the router wants.
func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Scheduler == nil {
		http.Error(w, "plan export needs scheduled mode", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.cfg.Scheduler.ExportPlans()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handlePrewarm imports one residency plan: body {"query": "...", "quota":
// [...]} as exported by /v1/plans. Replies 202 — the fill proceeds in the
// background; the geometry serves (lazily filling) immediately.
func (s *Server) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Scheduler == nil {
		http.Error(w, "prewarm needs scheduled mode", http.StatusNotImplemented)
		return
	}
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
	if err := s.cfg.Scheduler.Prewarm(opts.Request, plan.Quota); err != nil {
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

// parseQuery resolves beamform parameters — shared by the HTTP handler
// (r.URL.Query() plus header overrides) and the stream transport (the
// hello query string). laneOverride and deadlineOverride, when non-empty,
// win over the lane / deadline_ms parameters.
func parseQuery(q url.Values, laneOverride, deadlineOverride string) (req SessionRequest, scanline bool, it, ip int, err error) {
	spec := core.ReducedSpec()
	switch q.Get("spec") {
	case "", "reduced":
	case "paper":
		spec = core.PaperSpec()
	default:
		return req, false, 0, 0, badRequest("unknown spec %q (want reduced|paper)", q.Get("spec"))
	}
	for name, dst := range map[string]*int{
		"elemx": &spec.ElemX, "elemy": &spec.ElemY,
		"ftheta": &spec.FocalTheta, "fphi": &spec.FocalPhi, "fdepth": &spec.FocalDepth,
	} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return req, false, 0, 0, badRequest("bad %s=%q", name, v)
			}
			*dst = n
		}
	}
	if err := spec.Validate(); err != nil {
		return req, false, 0, 0, badRequest("%v", err)
	}
	arch, aerr := ParseArch(q.Get("arch"))
	if aerr != nil {
		return req, false, 0, 0, badRequest("%v", aerr)
	}
	cfg := core.SessionConfig{Window: xdcr.Hann, Cached: true, CacheBudget: -1}
	switch q.Get("window") {
	case "", "hann":
	case "rect":
		cfg.Window = xdcr.Rect
	default:
		return req, false, 0, 0, badRequest("unknown window %q (want hann|rect)", q.Get("window"))
	}
	if v := q.Get("precision"); v != "" {
		prec, perr := beamform.ParsePrecision(v)
		if perr != nil {
			return req, false, 0, 0, badRequest("%v", perr)
		}
		cfg.Precision = prec
		cfg.WideCache = prec == beamform.PrecisionWide
	}
	switch v := q.Get("budget"); v {
	case "":
	case "none":
		cfg.Cached = false
	default:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, false, 0, 0, badRequest("bad budget=%q", v)
		}
		cfg.CacheBudget = n
	}
	if v := q.Get("transmits"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 64 {
			return req, false, 0, 0, badRequest("bad transmits=%q (want 1..64)", v)
		}
		if n > 1 {
			// Axial virtual sources behind the aperture: the transmit set
			// every architecture (incl. TABLESTEER's folding) can represent.
			cfg.Transmits = delayAxialSet(n, spec)
		}
	}
	laneName := laneOverride
	if laneName == "" {
		laneName = q.Get("lane")
	}
	lane, lerr := ParseLane(laneName)
	if lerr != nil {
		return req, false, 0, 0, badRequest("%v", lerr)
	}
	deadlineMs := deadlineOverride
	if deadlineMs == "" {
		deadlineMs = q.Get("deadline_ms")
	}
	var deadline time.Duration
	if deadlineMs != "" {
		ms, derr := strconv.Atoi(deadlineMs)
		if derr != nil || ms <= 0 {
			return req, false, 0, 0, badRequest("bad deadline_ms=%q (want a positive integer)", deadlineMs)
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	it, ip = spec.FocalTheta/2, spec.FocalPhi/2
	switch q.Get("out") {
	case "", "volume":
	case "scanline":
		scanline = true
		for name, dst := range map[string]*int{"theta": &it, "phi": &ip} {
			if v := q.Get(name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return req, false, 0, 0, badRequest("bad %s=%q", name, v)
				}
				*dst = n
			}
		}
		if it >= spec.FocalTheta || ip >= spec.FocalPhi {
			return req, false, 0, 0, badRequest("scanline (θ=%d, φ=%d) outside %d×%d grid",
				it, ip, spec.FocalTheta, spec.FocalPhi)
		}
	default:
		return req, false, 0, 0, badRequest("unknown out %q (want volume|scanline)", q.Get("out"))
	}
	return SessionRequest{Spec: spec, Config: cfg, Arch: arch, Lane: lane, Deadline: deadline}, scanline, it, ip, nil
}

// wantsWire reports whether the request body is wire-framed: fmt=i16|f32|
// f64 or Content-Type application/x-ultrabeam-frame. fmt names what the
// client intends to send, but each frame header is authoritative for its
// own encoding — the format is self-describing.
func wantsWire(contentType, fmtParam string) (bool, error) {
	switch fmtParam {
	case "", "raw":
	case "i16", "f32", "f64", "int16", "float32", "float64":
		return true, nil
	default:
		return false, badRequest("unknown fmt %q (want raw|i16|f32|f64)", fmtParam)
	}
	mt, _, _ := mime.ParseMediaType(contentType)
	return mt == wire.ContentType, nil
}

// respEncoding resolves the response sample encoding: resp=f32|f64 or an
// Accept header naming application/x-ultrabeam-f32.
func respEncoding(q url.Values, accept string) (wire.Encoding, error) {
	switch q.Get("resp") {
	case "", "f64", "float64":
	case "f32", "float32":
		return wire.EncodingF32, nil
	default:
		return wire.EncodingF64, badRequest("unknown resp %q (want f64|f32)", q.Get("resp"))
	}
	if strings.Contains(accept, "application/x-ultrabeam-f32") {
		return wire.EncodingF32, nil
	}
	return wire.EncodingF64, nil
}

// readFrame decodes one transmit's raw echo plane: elements·win
// little-endian float64 samples, element-major.
func readFrame(r io.Reader, elements int, maxBytes int64) ([]rf.EchoBuffer, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		// http.MaxBytesReader trips before our own limit check can: keep
		// the status a retry-sizing client can act on.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, tooLarge("frame exceeds %d bytes", mbe.Limit)
		}
		return nil, badRequest("reading frame: %v", err)
	}
	if int64(len(raw)) > maxBytes {
		return nil, tooLarge("frame exceeds %d bytes", maxBytes)
	}
	if len(raw) == 0 || len(raw)%(8*elements) != 0 {
		return nil, badRequest("frame is %d bytes; want a positive multiple of 8·%d elements", len(raw), elements)
	}
	win := len(raw) / (8 * elements)
	bufs := make([]rf.EchoBuffer, elements)
	samples := make([]float64, elements*win) // one backing array for the frame
	for i := range samples {
		samples[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	for d := 0; d < elements; d++ {
		bufs[d] = rf.EchoBuffer{Samples: samples[d*win : (d+1)*win : (d+1)*win]}
	}
	return bufs, nil
}

// readTransmits decodes a raw request body into per-transmit echo sets:
// the plain body for a single insonification, one multipart "transmit"
// part per insonification for compounding. Before any byte of a plain
// body is buffered, the declared Content-Length is checked against the
// geometry — a malformed length costs a 400/413, not a 256 MiB read.
func readTransmits(r *http.Request, req SessionRequest, maxBytes int64) ([][]rf.EchoBuffer, error) {
	elements := req.Spec.Elements()
	wantTx := len(req.Config.Transmits)
	if wantTx == 0 {
		wantTx = 1
	}
	ct := r.Header.Get("Content-Type")
	mt, params, _ := mime.ParseMediaType(ct)
	if mt != "multipart/form-data" {
		if wantTx != 1 {
			return nil, badRequest("%d transmits need multipart/form-data with one part per transmit (or wire frames)", wantTx)
		}
		if cl := r.ContentLength; cl >= 0 {
			if cl > maxBytes {
				return nil, tooLarge("declared body of %d bytes exceeds %d", cl, maxBytes)
			}
			if cl == 0 || cl%int64(8*elements) != 0 {
				return nil, badRequest("declared body of %d bytes; want a positive multiple of 8·%d elements", cl, elements)
			}
		}
		bufs, err := readFrame(r.Body, elements, maxBytes)
		if err != nil {
			return nil, err
		}
		return [][]rf.EchoBuffer{bufs}, nil
	}
	mr := multipart.NewReader(r.Body, params["boundary"])
	var tx [][]rf.EchoBuffer
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, badRequest("multipart: %v", err)
		}
		if part.FormName() != "transmit" {
			continue
		}
		if len(tx) == wantTx {
			return nil, badRequest("more than %d transmit parts", wantTx)
		}
		bufs, err := readFrame(part, elements, maxBytes)
		if err != nil {
			return nil, err
		}
		tx = append(tx, bufs)
	}
	if len(tx) != wantTx {
		return nil, badRequest("%d transmit parts for %d transmits", len(tx), wantTx)
	}
	return tx, nil
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

// wirePayload is one compound frame decoded off the wire: guarded float32
// planes (planes[t], stride win+1 — the decode-into-plane path), guarded
// int16 planes plus their per-transmit quantization scales (planesI16[t],
// scales[t] — the ADC-native path feeding the fixed-point kernel with no
// float conversion at ingest), or float64 echo sets (tx[t][element] — the
// golden path every precision accepts). Exactly one of planes / planesI16
// / tx is non-nil.
type wirePayload struct {
	planes    [][]float32
	planesI16 [][]int16
	scales    []float32
	win       int
	tx        [][]rf.EchoBuffer
}

// kind labels which guarded-plane form (if any) the payload decoded into —
// the per-precision split of the plane-decode counters.
func (p *wirePayload) kind() planeKind {
	switch {
	case p.planesI16 != nil:
		return planeI16
	case p.planes != nil:
		return planeF32
	}
	return planeNone
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

// planesUsable reports whether a request's session consumes guarded
// float32 planes: the narrow single-precision kernel with the window
// inside the int16-exact range. Everything else gets float64 echo buffers
// (for f64 wire frames that path is bit-exact at every precision).
func planesUsable(req SessionRequest, win int) bool {
	return req.Config.Precision == beamform.PrecisionFloat32 && win <= delay.MaxEchoWindow
}

// planesI16Usable reports whether a frame decodes straight into a guarded
// int16 plane: an i16-encoded wire frame bound for a prec=i16 session —
// the quantized samples on the wire are exactly what the fixed-point
// kernel gathers, so ingest is a near-memcpy and the header's scale rides
// along. Any other encoding sent to an i16 session falls back to float64
// echo buffers (the session quantizes in its convert phase); a compound
// that switches encodings after an i16 transmit 0 is rejected by the
// decoder's encoding check.
func planesI16Usable(req SessionRequest, h wire.Header) bool {
	return req.Config.Precision == beamform.PrecisionInt16 &&
		h.Encoding == wire.EncodingI16 && h.Window <= delay.MaxEchoWindow
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

// decodeWireFrame streams a checked frame's payload into p, picking p's
// form on the first transmit: guarded int16 planes for an i16 frame bound
// for an i16 session, guarded float32 planes when the narrow float kernel
// can consume them, float64 echo buffers otherwise.
func decodeWireFrame(body io.Reader, h wire.Header, req SessionRequest, wantTx, t int, p *wirePayload) error {
	elements := req.Spec.Elements()
	if t == 0 {
		p.win = h.Window
		switch {
		case planesI16Usable(req, h):
			p.planesI16 = make([][]int16, wantTx)
			p.scales = make([]float32, wantTx)
		case planesUsable(req, h.Window):
			p.planes = make([][]float32, wantTx)
		default:
			p.tx = make([][]rf.EchoBuffer, wantTx)
		}
	}
	if p.planesI16 != nil {
		stride := p.win + 1
		plane := make([]int16, elements*stride) // fresh: guard slots zero
		if err := wire.DecodePlaneI16(body, h, plane, stride); err != nil {
			return wireErr(err)
		}
		p.planesI16[t] = plane
		p.scales[t] = h.Scale
		return nil
	}
	if p.planes != nil {
		stride := p.win + 1
		plane := make([]float32, elements*stride) // fresh: guard slots zero
		if err := wire.DecodePlane(body, h, plane, stride); err != nil {
			return wireErr(err)
		}
		p.planes[t] = plane
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
	p.tx[t] = bufs
	return nil
}

// readWireFrame reads, checks and decodes one wire frame into p.
func readWireFrame(body io.Reader, req SessionRequest, wantTx, t int, maxBytes int64, p *wirePayload) (wire.Header, error) {
	h, err := wire.ReadHeader(body)
	if err != nil {
		return h, wireErr(err)
	}
	if err := checkWireHeader(h, req, wantTx, t, p.win, maxBytes); err != nil {
		return h, err
	}
	return h, decodeWireFrame(body, h, req, wantTx, t, p)
}

// readWirePayload decodes a whole compound frame (wantTx wire frames,
// transmit order) from body, recording ingest metrics on rec.
func readWirePayload(body io.Reader, req SessionRequest, wantTx int, maxBytes int64, rec *wireRecorder) (*wirePayload, error) {
	var p wirePayload
	cr := &countingReader{r: body}
	for t := 0; t < wantTx; t++ {
		before := cr.n
		start := time.Now()
		h, err := readWireFrame(cr, req, wantTx, t, maxBytes, &p)
		if err != nil {
			return nil, err
		}
		rec.recordIngest(h.Encoding, false, cr.n-before, time.Since(start), p.kind())
	}
	return &p, nil
}

func (s *Server) handleBeamform(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	opts, err := ParseOptions(r.URL.Query(), r.Header)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, scanline, it, ip := opts.Request, opts.Scanline, opts.Theta, opts.Phi
	isWire, respEnc := opts.WireBody, opts.Resp
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
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

	var vol *beamform.Volume
	switch {
	case isWire && s.cfg.Scheduler != nil:
		// Streaming ingest: reserve the queue slot (and start a cold
		// geometry's session build) before the payload is decoded, so the
		// upload overlaps the backlog ahead of it.
		pend, berr := s.cfg.Scheduler.Begin(req)
		if berr != nil {
			s.writeError(w, berr)
			return
		}
		p, derr := readWirePayload(r.Body, req, txCount(req), s.cfg.MaxBodyBytes, s.wireRec())
		if derr != nil {
			pend.Abort()
			s.writeError(w, derr)
			return
		}
		switch {
		case p.planesI16 != nil:
			pend.CompletePlanesI16(p.win, p.planesI16, p.scales)
		case p.planes != nil:
			pend.CompletePlanes(p.win, p.planes)
		default:
			pend.CompleteBuffers(p.tx)
		}
		vol, err = pend.Wait(ctx)
	case isWire:
		// Checkout mode: decode fully (planes still skip the float64
		// intermediate), then lease a session.
		p, derr := readWirePayload(r.Body, req, txCount(req), s.cfg.MaxBodyBytes, s.wireRec())
		if derr != nil {
			s.writeError(w, derr)
			return
		}
		lease, lerr := s.cfg.Pool.Acquire(ctx, req)
		if lerr != nil {
			s.writeError(w, lerr)
			return
		}
		switch {
		case p.planesI16 != nil:
			vol = lease.Session.NewVolume()
			err = lease.Session.BeamformBatchPlanesI16([]*beamform.Volume{vol}, p.win,
				[][][]int16{p.planesI16}, [][]float32{p.scales})
		case p.planes != nil:
			vol = lease.Session.NewVolume()
			err = lease.Session.BeamformBatchPlanes([]*beamform.Volume{vol}, p.win, [][][]float32{p.planes})
		default:
			vol, err = lease.Session.BeamformCompound(p.tx)
		}
		lease.Release()
	case s.cfg.Scheduler != nil:
		decodeStart := time.Now()
		txBufs, derr := readTransmits(r, req, s.cfg.MaxBodyBytes)
		if derr != nil {
			s.writeError(w, derr)
			return
		}
		s.recordRaw(txBufs, time.Since(decodeStart))
		vol, err = s.cfg.Scheduler.Submit(ctx, req, txBufs)
	default:
		decodeStart := time.Now()
		txBufs, derr := readTransmits(r, req, s.cfg.MaxBodyBytes)
		if derr != nil {
			s.writeError(w, derr)
			return
		}
		s.recordRaw(txBufs, time.Since(decodeStart))
		lease, lerr := s.cfg.Pool.Acquire(ctx, req)
		if lerr != nil {
			s.writeError(w, lerr)
			return
		}
		vol, err = lease.Session.BeamformCompound(txBufs)
		// The volume is freshly allocated, so the session is done the moment
		// BeamformCompound returns: release before encoding and writing the
		// response, or a slow-reading client would pin a warm slot through a
		// multi-megabyte network write doing no beamforming.
		lease.Release()
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	data := vol.Data
	if scanline {
		data = vol.Scanline(it, ip)
	}
	size := respEnc.SampleBytes()
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Ultrabeam-Theta", strconv.Itoa(vol.Vol.Theta.N))
	h.Set("X-Ultrabeam-Phi", strconv.Itoa(vol.Vol.Phi.N))
	h.Set("X-Ultrabeam-Depth", strconv.Itoa(vol.Vol.Depth.N))
	h.Set("X-Ultrabeam-Encoding", respEnc.String())
	if scanline {
		h.Set("X-Ultrabeam-Scanline", fmt.Sprintf("%d,%d", it, ip))
	}
	h.Set("X-Ultrabeam-Elapsed-Ms", strconv.FormatFloat(time.Since(start).Seconds()*1e3, 'f', 3, 64))
	h.Set("Content-Length", strconv.Itoa(size*len(data)))
	out := make([]byte, size*len(data))
	if respEnc == wire.EncodingF32 {
		for i, v := range data {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range data {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
	}
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

// recordRaw accounts legacy raw-body ingest in the wire metrics.
func (s *Server) recordRaw(txBufs [][]rf.EchoBuffer, decode time.Duration) {
	rec := s.wireRec()
	per := decode / time.Duration(max(len(txBufs), 1))
	for _, bufs := range txBufs {
		var n int64
		for _, b := range bufs {
			n += int64(8 * len(b.Samples))
		}
		rec.recordIngest(wire.EncodingF64, true, n, per, planeNone)
	}
}

// writeError maps backend and parse errors onto HTTP statuses: overload,
// drain and queue timeout are 503 (retryable backpressure) with a
// Retry-After derived from live queue depth and dispatch rate — not a
// constant — so clients back off proportionally to how far behind the
// node actually is. Degraded frames are 503 with an explicit
// X-Ultrabeam-Degraded marker (the frame was shed deliberately, not
// failed); an expired client deadline is 504; parse errors 400.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		http.Error(w, he.msg, he.status)
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		w.Header().Set("X-Ultrabeam-Degraded", "shed")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		w.Header().Set("X-Ultrabeam-Draining", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrOverloaded), errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrExpired):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// delayAxialSet builds the n-transmit axial virtual-source set used by the
// transmits= parameter: sources spread from 10λ to 30λ behind the aperture.
func delayAxialSet(n int, spec core.SystemSpec) []delay.Transmit {
	l := spec.Lambda()
	return delay.AxialTransmits(n, -10*l, -30*l)
}
