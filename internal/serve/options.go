// RequestOptions: the versioned, typed form of the beamform request
// grammar. ParseOptions and Encode make the whole grammar one
// round-trippable value, shared by the HTTP handler, the stream hello and
// the cluster router — a request parsed anywhere re-encodes to a canonical
// query string that parses back to the same typed value, which is what
// lets a router re-issue a request (or a residency plan) to another node
// without keeping the original bytes.
package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/wire"
	"ultrabeam/internal/xdcr"
)

// RequestOptions is one beamform request, fully resolved: the session key
// (geometry, datapath config, architecture), the per-request scheduling
// fields (lane, deadline), the response selection and the body/response
// encodings. It is the typed value behind every transport:
//
//	POST /v1/beamform?…      ParseOptions(r.URL.Query(), r.Header)
//	stream hello query       ParseOptions(q, nil)
//	router re-issue          opts.Encode() → canonical query string
type RequestOptions struct {
	// Request keys the warm session: spec, config, arch, plus the lane and
	// deadline scheduling fields.
	Request SessionRequest
	// Scanline selects the one-scanline response (out=scanline); Theta and
	// Phi are the scanline grid indices. When Scanline is false they hold
	// the grid center (the default a later out=scanline would use).
	Scanline   bool
	Theta, Phi int
	// BodyFormat is the canonical fmt= name ("i16", "f32" or "f64"; empty
	// when the request does not name one). Every body is UBF1 wire frames
	// and each frame header is authoritative for its own encoding, so fmt=
	// only names the client's intent.
	BodyFormat string
	// Resp is the response sample encoding (resp= / Accept negotiation).
	Resp wire.Encoding
}

// ParseOptions resolves the full request grammar — query parameters plus,
// when hdr is non-nil, the header overrides (X-Ultrabeam-Lane,
// X-Ultrabeam-Deadline-Ms, Accept). Headers win over parameters, so a proxy
// can reclassify traffic without rewriting URLs. The stream hello passes
// hdr == nil: its grammar is parameters only. Every error it returns maps
// to 400.
func ParseOptions(q url.Values, hdr http.Header) (RequestOptions, error) {
	laneName, deadlineMs, accept := q.Get("lane"), q.Get("deadline_ms"), ""
	if hdr != nil {
		if v := hdr.Get("X-Ultrabeam-Lane"); v != "" {
			laneName = v
		}
		if v := hdr.Get("X-Ultrabeam-Deadline-Ms"); v != "" {
			deadlineMs = v
		}
		accept = hdr.Get("Accept")
	}
	var o RequestOptions
	spec := core.ReducedSpec()
	switch q.Get("spec") {
	case "", "reduced":
	case "paper":
		spec = core.PaperSpec()
	default:
		return o, badRequest("unknown spec %q (want reduced|paper)", q.Get("spec"))
	}
	for name, dst := range map[string]*int{
		"elemx": &spec.ElemX, "elemy": &spec.ElemY,
		"ftheta": &spec.FocalTheta, "fphi": &spec.FocalPhi, "fdepth": &spec.FocalDepth,
	} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return o, badRequest("bad %s=%q", name, v)
			}
			*dst = n
		}
	}
	if err := spec.Validate(); err != nil {
		return o, badRequest("%v", err)
	}
	arch, err := ParseArch(q.Get("arch"))
	if err != nil {
		return o, badRequest("%v", err)
	}
	cfg := core.SessionConfig{Window: xdcr.Hann, Cached: true, CacheBudget: -1}
	switch q.Get("window") {
	case "", "hann":
	case "rect":
		cfg.Window = xdcr.Rect
	default:
		return o, badRequest("unknown window %q (want hann|rect)", q.Get("window"))
	}
	if v := q.Get("precision"); v != "" {
		if cfg.Precision, err = beamform.ParsePrecision(v); err != nil {
			return o, badRequest("%v", err)
		}
	}
	switch v := q.Get("budget"); v {
	case "":
	case "none":
		cfg.Cached = false
	default:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return o, badRequest("bad budget=%q", v)
		}
		cfg.CacheBudget = n
	}
	if v := q.Get("transmits"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 64 {
			return o, badRequest("bad transmits=%q (want 1..64)", v)
		}
		if n > 1 {
			// Axial virtual sources behind the aperture: the transmit set
			// every architecture (incl. TABLESTEER's folding) can represent.
			cfg.Transmits = spec.AxialTransmits(n)
		}
	}
	lane, err := ParseLane(laneName)
	if err != nil {
		return o, badRequest("%v", err)
	}
	var deadline time.Duration
	if deadlineMs != "" {
		// The bound keeps ms·time.Millisecond from wrapping: a wrapped
		// deadline would read as none, or as one already past.
		ms, err := strconv.ParseInt(deadlineMs, 10, 64)
		if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
			return o, badRequest("bad deadline_ms=%q (want a positive integer)", deadlineMs)
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	o.Theta, o.Phi = spec.FocalTheta/2, spec.FocalPhi/2
	switch q.Get("out") {
	case "", "volume":
	case "scanline":
		o.Scanline = true
		for name, dst := range map[string]*int{"theta": &o.Theta, "phi": &o.Phi} {
			if v := q.Get(name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return o, badRequest("bad %s=%q", name, v)
				}
				*dst = n
			}
		}
		if o.Theta >= spec.FocalTheta || o.Phi >= spec.FocalPhi {
			return o, badRequest("scanline (θ=%d, φ=%d) outside %d×%d grid",
				o.Theta, o.Phi, spec.FocalTheta, spec.FocalPhi)
		}
	default:
		return o, badRequest("unknown out %q (want volume|scanline)", q.Get("out"))
	}
	if f := q.Get("fmt"); f != "" {
		enc, err := wire.ParseEncoding(f)
		if err != nil {
			return o, badRequest("unknown fmt %q (want i16|f32|f64)", f)
		}
		o.BodyFormat = enc.String()
	}
	switch q.Get("resp") {
	case "", "f64", "float64":
		if strings.Contains(accept, "application/x-ultrabeam-f32") {
			o.Resp = wire.EncodingF32
		}
	case "f32", "float32":
		o.Resp = wire.EncodingF32
	default:
		return o, badRequest("unknown resp %q (want f64|f32)", q.Get("resp"))
	}
	o.Request = SessionRequest{Spec: spec, Config: cfg, Arch: arch, Lane: lane, Deadline: deadline}
	return o, nil
}

// Encode renders the options as the canonical /v1 query values: the
// minimal parameter set that ParseOptions maps back to an equal value.
// Lane and deadline come back as parameters (lane=, deadline_ms=), not
// headers, so the encoding is transport-independent — usable as a POST
// query, a stream hello, or a residency-plan key shipped between nodes.
//
// Not every programmatically-constructed SessionRequest is expressible in
// the grammar: a spec whose physical constants match neither Table I base,
// or a transmit set other than the axial transmits= family, returns an
// error. Everything ParseOptions itself produced encodes.
func (o RequestOptions) Encode() (url.Values, error) {
	q := url.Values{}
	if err := encodeSpec(q, o.Request.Spec); err != nil {
		return nil, err
	}
	cfg := o.Request.Config
	if o.Request.Arch != ArchTableFree {
		q.Set("arch", o.Request.Arch.String())
	}
	switch cfg.Window {
	case xdcr.Hann:
	case xdcr.Rect:
		q.Set("window", "rect")
	default:
		return nil, fmt.Errorf("serve: window %v not expressible (want hann|rect)", cfg.Window)
	}
	switch cfg.Precision {
	case beamform.PrecisionFloat64:
	case beamform.PrecisionInt16:
		q.Set("precision", cfg.Precision.String())
	default:
		return nil, fmt.Errorf("serve: precision %v not expressible", cfg.Precision)
	}
	switch {
	case !cfg.Cached:
		q.Set("budget", "none")
	case cfg.CacheBudget != -1:
		q.Set("budget", strconv.FormatInt(cfg.CacheBudget, 10))
	}
	if n := len(cfg.Transmits); n > 0 {
		want := o.Request.Spec.AxialTransmits(n)
		if len(want) != n {
			return nil, fmt.Errorf("serve: %d-transmit set not expressible", n)
		}
		for i, t := range cfg.Transmits {
			if t != want[i] {
				return nil, fmt.Errorf("serve: transmit %d origin (%g,%g,%g) is not the axial transmits=%d set",
					i, t.Origin.X, t.Origin.Y, t.Origin.Z, n)
			}
		}
		q.Set("transmits", strconv.Itoa(n))
	}
	if o.Request.Lane != LaneInteractive {
		q.Set("lane", o.Request.Lane.String())
	}
	if o.Request.Deadline > 0 {
		q.Set("deadline_ms", strconv.Itoa(int(o.Request.Deadline.Milliseconds())))
	}
	if o.Scanline {
		q.Set("out", "scanline")
		q.Set("theta", strconv.Itoa(o.Theta))
		q.Set("phi", strconv.Itoa(o.Phi))
	}
	if o.BodyFormat != "" {
		q.Set("fmt", o.BodyFormat)
	}
	if o.Resp == wire.EncodingF32 {
		q.Set("resp", "f32")
	}
	return q, nil
}

// encodeSpec reverse-maps a resolved SystemSpec onto the grammar's
// spec=reduced|paper base plus elemx/elemy/ftheta/fphi/fdepth overrides,
// choosing the base needing the fewest overrides.
func encodeSpec(q url.Values, spec core.SystemSpec) error {
	bases := []struct {
		name string
		spec core.SystemSpec
	}{
		{"reduced", core.ReducedSpec()},
		{"paper", core.PaperSpec()},
	}
	bestName, bestOverrides := "", map[string]int(nil)
	for _, b := range bases {
		if spec.C != b.spec.C || spec.Fc != b.spec.Fc || spec.B != b.spec.B ||
			spec.PitchL != b.spec.PitchL || spec.ThetaDeg != b.spec.ThetaDeg ||
			spec.PhiDeg != b.spec.PhiDeg || spec.DepthLambda != b.spec.DepthLambda ||
			spec.Fs != b.spec.Fs {
			continue
		}
		ov := map[string]int{}
		for _, f := range []struct {
			name       string
			have, base int
		}{
			{"elemx", spec.ElemX, b.spec.ElemX},
			{"elemy", spec.ElemY, b.spec.ElemY},
			{"ftheta", spec.FocalTheta, b.spec.FocalTheta},
			{"fphi", spec.FocalPhi, b.spec.FocalPhi},
			{"fdepth", spec.FocalDepth, b.spec.FocalDepth},
		} {
			if f.have != f.base {
				ov[f.name] = f.have
			}
		}
		if bestOverrides == nil || len(ov) < len(bestOverrides) {
			bestName, bestOverrides = b.name, ov
		}
	}
	if bestOverrides == nil {
		return fmt.Errorf("serve: spec physical constants match neither reduced nor paper base")
	}
	if bestName != "reduced" {
		q.Set("spec", bestName)
	}
	for _, name := range []string{"elemx", "elemy", "ftheta", "fphi", "fdepth"} {
		if v, ok := bestOverrides[name]; ok {
			q.Set(name, strconv.Itoa(v))
		}
	}
	return nil
}

// EncodeQuery is Encode flattened to the canonical query-string form used
// by the stream hello and the residency-plan handoff. Parameters sort
// alphabetically (url.Values.Encode), so equal options yield equal
// strings.
func (o RequestOptions) EncodeQuery() (string, error) {
	q, err := o.Encode()
	if err != nil {
		return "", err
	}
	return q.Encode(), nil
}

// Fingerprint is the canonical shard/session key of the options' session
// request — the cluster router hashes exactly this.
func (o RequestOptions) Fingerprint() string { return o.Request.Fingerprint() }
