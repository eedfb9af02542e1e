package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
	"ultrabeam/internal/xdcr"
)

// tinySpec is the laptop-scale geometry the serving tests run on.
func tinySpec() core.SystemSpec {
	s := core.ReducedSpec()
	s.ElemX, s.ElemY = 8, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 3, 10
	s.DepthLambda = 60
	return s
}

func tinyRequest() SessionRequest {
	return SessionRequest{
		Spec:   tinySpec(),
		Config: core.SessionConfig{Window: xdcr.Hann, Cached: true, CacheBudget: -1},
		Arch:   ArchTableFree,
	}
}

func tinyFrame(t testing.TB, s core.SystemSpec) []rf.EchoBuffer {
	t.Helper()
	bufs, err := rf.Synthesize(rf.Config{
		Arr: s.Array(), Conv: s.Converter(), Pulse: rf.NewPulse(s.Fc, s.B),
		BufSamples: s.EchoBufferSamples(),
	}, rf.PointPhantom(geom.Vec3{Z: 0.6 * s.Depth()}))
	if err != nil {
		t.Fatal(err)
	}
	return bufs
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := tinyRequest()
	same := tinyRequest()
	if base.Fingerprint() != same.Fingerprint() {
		t.Error("identical requests must share a fingerprint")
	}
	variants := map[string]func(*SessionRequest){
		"spec":      func(r *SessionRequest) { r.Spec.FocalDepth++ },
		"arch":      func(r *SessionRequest) { r.Arch = ArchExact },
		"window":    func(r *SessionRequest) { r.Config.Window = xdcr.Rect },
		"precision": func(r *SessionRequest) { r.Config.Precision = beamform.PrecisionInt16 },
		"budget":    func(r *SessionRequest) { r.Config.CacheBudget = 1024 },
		"uncached":  func(r *SessionRequest) { r.Config.Cached = false },
		"transmits": func(r *SessionRequest) {
			r.Config.Transmits = r.Spec.AxialTransmits(2)
		},
	}
	for name, mutate := range variants {
		v := tinyRequest()
		mutate(&v)
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s variant must change the fingerprint", name)
		}
	}
}

// tinyQuery returns the query string selecting the tinySpec geometry.
func tinyQuery(extra url.Values) string {
	s := tinySpec()
	q := url.Values{
		"spec":  {"reduced"},
		"elemx": {strconv.Itoa(s.ElemX)}, "elemy": {strconv.Itoa(s.ElemY)},
		"ftheta": {strconv.Itoa(s.FocalTheta)}, "fphi": {strconv.Itoa(s.FocalPhi)},
		"fdepth": {strconv.Itoa(s.FocalDepth)},
	}
	for k, vs := range extra {
		q[k] = vs
	}
	return q.Encode()
}

func newSchedTestServer(t *testing.T, sc SchedulerConfig) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched := NewScheduler(sc)
	t.Cleanup(sched.Close)
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, sched
}

func TestServerHealthz(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

// TestServerConfigNeedsScheduler: the scheduler is the one serving mode, so
// a server without one is refused at construction.
func TestServerConfigNeedsScheduler(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("server config without a scheduler accepted")
	}
}

// flatten concatenates echo buffers into one element-major sample slice.
func flatten(bufs []rf.EchoBuffer) []float64 {
	win := len(bufs[0].Samples)
	out := make([]float64, len(bufs)*win)
	for d, b := range bufs {
		copy(out[d*win:], b.Samples)
	}
	return out
}

// encodeWire serializes a compound as concatenated wire frames.
func encodeWire(t testing.TB, enc wire.Encoding, tx [][]rf.EchoBuffer, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, bufs := range tx {
		f, err := wire.NewFrame(enc, len(bufs), len(bufs[0].Samples), i, len(tx), flatten(bufs))
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&buf, f, chunk); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// postBytes posts a body with the given content type and returns status,
// response body and headers.
func postBytes(t *testing.T, url, ct string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header
}

// TestDecodedElementViewsAreCapped: the float64 ingest cuts every
// element's view out of one backing array with a full slice expression, so
// an append or reslice on one element cannot reach into its neighbour's
// samples.
func TestDecodedElementViewsAreCapped(t *testing.T) {
	req := tinyRequest()
	bufs := tinyFrame(t, req.Spec)
	elements := req.Spec.Elements()

	r := bytes.NewReader(encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs}, 0))
	h, err := wire.ReadHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	var f beamform.Frame
	if err := decodeWireFrame(r, h, req, 1, 0, &f); err != nil {
		t.Fatal(err)
	}
	views := f.Bufs[0]
	if len(views) != elements {
		t.Fatalf("%d views for %d elements", len(views), elements)
	}
	for d, b := range views {
		if len(b.Samples) == 0 || cap(b.Samples) != len(b.Samples) {
			t.Fatalf("element %d: len %d cap %d — the view reaches past its own window", d, len(b.Samples), cap(b.Samples))
		}
	}
}
