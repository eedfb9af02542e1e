package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"ultrabeam/internal/core"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

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
func encodeWire(t *testing.T, enc wire.Encoding, tx [][]rf.EchoBuffer, chunk int) []byte {
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

// psnr returns the peak signal-to-noise ratio of got vs ref in dB.
func psnr(ref, got []float64) float64 {
	peak, mse := 0.0, 0.0
	for i := range ref {
		if a := math.Abs(ref[i]); a > peak {
			peak = a
		}
		d := got[i] - ref[i]
		mse += d * d
	}
	mse /= float64(len(ref))
	if mse == 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(peak/math.Sqrt(mse))
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

// TestServerWireF64BitIdentity: an f64 wire body must return exactly the
// bytes of the legacy raw float64 body — at every precision, so the wire
// format inherits the scheduler's bit-identity contract unchanged.
func TestServerWireF64BitIdentity(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	raw := encodeFrame(bufs)
	wireBody := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs}, 4096)

	for _, prec := range []string{"float64", "float32", "wide"} {
		q := tinyQuery(url.Values{"precision": {prec}})
		st1, legacy, _ := postBytes(t, ts.URL+"/beamform?"+q, "application/octet-stream", raw)
		st2, wired, hdr := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType, wireBody)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: raw %d / wire %d: %s", prec, st1, st2, wired)
		}
		if hdr.Get("X-Ultrabeam-Encoding") != "f64" {
			t.Errorf("%s: response encoding header %q", prec, hdr.Get("X-Ultrabeam-Encoding"))
		}
		if !bytes.Equal(legacy, wired) {
			t.Errorf("%s: f64 wire volume differs from the raw-body volume", prec)
		}
	}
}

// TestServerWireNarrowPSNR: i16 and f32 wire frames on the float32 session
// (the decode-into-plane path) reconstruct the f64 volume above 60 dB
// PSNR, and the plane decode shows up in the wire metrics.
func TestServerWireNarrowPSNR(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}
	q := tinyQuery(url.Values{"precision": {"float32"}})

	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType,
		encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64 reference: %d: %s", st, refRaw)
	}
	ref := decodeFloats(t, refRaw)

	for _, enc := range []wire.Encoding{wire.EncodingI16, wire.EncodingF32} {
		st, raw, _ := postBytes(t, ts.URL+"/beamform?"+q+"&fmt="+enc.String(), wire.ContentType,
			encodeWire(t, enc, tx, 8192))
		if st != http.StatusOK {
			t.Fatalf("%s: %d: %s", enc, st, raw)
		}
		got := decodeFloats(t, raw)
		if db := psnr(ref, got); db < 60 {
			t.Errorf("%s volume PSNR = %.1f dB, want ≥ 60", enc, db)
		}
	}
	ws := sched.Stats().Wire
	if ws.FramesI16 != 1 || ws.FramesF32 != 1 || ws.FramesF64 != 1 {
		t.Errorf("wire frame counters: %+v", ws)
	}
	if ws.PlaneDecodes != 3 {
		t.Errorf("plane decodes = %d, want 3 (float32 session consumes planes)", ws.PlaneDecodes)
	}
	if ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Errorf("byte counters unset: %+v", ws)
	}
}

// TestServerWireCompound: a multi-transmit wire body (concatenated frames,
// no multipart) matches the multipart raw path bit for bit.
func TestServerWireCompound(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)

	cfg := core.SessionConfig{Window: tinyRequest().Config.Window, Cached: true, CacheBudget: -1,
		Transmits: delayAxialSet(2, spec)}
	solo, _, err := spec.NewSessionConfig(cfg, ArchTableFree.NewProvider(spec))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solo.BeamformCompound([][]rf.EchoBuffer{bufs, bufs})
	solo.Close()
	if err != nil {
		t.Fatal(err)
	}

	body := encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs, bufs}, 0)
	st, raw, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(url.Values{"transmits": {"2"}}),
		wire.ContentType, body)
	if st != http.StatusOK {
		t.Fatalf("wire compound: %d: %s", st, raw)
	}
	vol := decodeFloats(t, raw)
	for i := range ref.Data {
		if vol[i] != ref.Data[i] {
			t.Fatalf("wire compound differs from direct session at %d", i)
		}
	}
}

// TestServerWirePoolMode: checkout mode accepts wire bodies too — i16 on a
// float32 session routes through BeamformBatchPlanes.
func TestServerWirePoolMode(t *testing.T) {
	ts, p := newTestServer(t, PoolConfig{MaxSessions: 1})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}
	q := tinyQuery(url.Values{"precision": {"float32"}})

	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType,
		encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64: %d: %s", st, refRaw)
	}
	st, raw, _ := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType,
		encodeWire(t, wire.EncodingI16, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("i16: %d: %s", st, raw)
	}
	if db := psnr(decodeFloats(t, refRaw), decodeFloats(t, raw)); db < 60 {
		t.Errorf("pool-mode i16 PSNR = %.1f dB, want ≥ 60", db)
	}
	if ws := p.Stats().Wire; ws.PlaneDecodes != 2 || ws.FramesI16 != 1 {
		t.Errorf("pool wire stats: %+v", ws)
	}
}

// TestServerWireF32Response: resp=f32 (and the Accept form) halves the
// reply and round-trips through float32 exactly — the volume is computed
// in float64 but every narrowed sample must match its float32 cast.
func TestServerWireF32Response(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	raw := encodeFrame(bufs)

	st, f64body, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(nil), "application/octet-stream", raw)
	if st != http.StatusOK {
		t.Fatalf("f64 response: %d", st)
	}
	st, f32body, hdr := postBytes(t, ts.URL+"/beamform?"+tinyQuery(url.Values{"resp": {"f32"}}),
		"application/octet-stream", raw)
	if st != http.StatusOK {
		t.Fatalf("f32 response: %d", st)
	}
	if hdr.Get("X-Ultrabeam-Encoding") != "f32" {
		t.Errorf("encoding header %q, want f32", hdr.Get("X-Ultrabeam-Encoding"))
	}
	if 2*len(f32body) != len(f64body) {
		t.Fatalf("f32 reply is %d bytes vs f64's %d, want half", len(f32body), len(f64body))
	}
	ref := decodeFloats(t, f64body)
	for i := range ref {
		want := float32(ref[i])
		got := math.Float32frombits(binary.LittleEndian.Uint32(f32body[4*i:]))
		if want != got {
			t.Fatalf("f32 response sample %d = %v, want %v", i, got, want)
		}
	}

	// Accept-header negotiation selects f32 too.
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/beamform?"+tinyQuery(nil), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hreq.Header.Set("Accept", "application/x-ultrabeam-f32")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Ultrabeam-Encoding") != "f32" {
		t.Errorf("Accept negotiation: encoding %q, want f32", resp.Header.Get("X-Ultrabeam-Encoding"))
	}
}

// TestServerWireEarlyValidation pins the before-payload rejection surface:
// geometry and size mismatches fail on the 32-byte header (400/413), and a
// mis-declared raw Content-Length fails before the body is buffered.
func TestServerWireEarlyValidation(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	win := len(bufs[0].Samples)
	samples := flatten(bufs)

	frame := func(mutate func(*wire.Frame)) []byte {
		t.Helper()
		f, err := wire.NewFrame(wire.EncodingF64, len(bufs), win, 0, 1, samples)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(f)
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, f, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	hdrOnly := func(h wire.Header) []byte {
		// Hand-marshal a bare header with no payload: validation must trip
		// on those 32 bytes alone.
		b := make([]byte, wire.HeaderBytes)
		copy(b, "UBF1")
		b[4] = wire.Version
		b[5] = byte(h.Encoding)
		binary.LittleEndian.PutUint32(b[8:], uint32(h.Elements))
		binary.LittleEndian.PutUint32(b[12:], uint32(h.Window))
		binary.LittleEndian.PutUint16(b[16:], uint16(h.TxIndex))
		binary.LittleEndian.PutUint16(b[18:], uint16(h.TxCount))
		binary.LittleEndian.PutUint32(b[20:], math.Float32bits(h.Scale))
		binary.LittleEndian.PutUint64(b[24:], uint64(h.PayloadBytes()))
		return b
	}

	cases := map[string]struct {
		query string
		ct    string
		body  []byte
		want  int
	}{
		"wrong elements": {query: tinyQuery(nil), ct: wire.ContentType,
			body: hdrOnly(wire.Header{Encoding: wire.EncodingF64, Elements: 3, Window: win, TxCount: 1}), want: 400},
		"wrong txcount": {query: tinyQuery(nil), ct: wire.ContentType,
			body: hdrOnly(wire.Header{Encoding: wire.EncodingF64, Elements: len(bufs), Window: win, TxIndex: 0, TxCount: 2}), want: 400},
		"oversized payload header": {query: tinyQuery(nil), ct: wire.ContentType,
			body: hdrOnly(wire.Header{Encoding: wire.EncodingF64, Elements: 1000, Window: 1 << 20, TxCount: 1}), want: 400},
		"bad magic": {query: tinyQuery(nil), ct: wire.ContentType,
			body: append([]byte("NOPE"), frame(nil)[4:]...), want: 400},
		"bad fmt param": {query: tinyQuery(url.Values{"fmt": {"f16"}}), ct: wire.ContentType,
			body: frame(nil), want: 400},
		"bad resp param": {query: tinyQuery(url.Values{"resp": {"i16"}}), ct: wire.ContentType,
			body: frame(nil), want: 400},
		"truncated payload": {query: tinyQuery(nil), ct: wire.ContentType,
			body: frame(nil)[:wire.HeaderBytes+100], want: 400},
	}
	for name, c := range cases {
		st, body, _ := postBytes(t, ts.URL+"/beamform?"+c.query, c.ct, c.body)
		if st != c.want {
			t.Errorf("%s: status %d, want %d (%s)", name, st, c.want, body)
		}
	}

	// "oversized payload header" above is 400 only because elements mismatch
	// trips first; with matching geometry but a tiny body cap it must be 413.
	sched2 := NewScheduler(SchedulerConfig{})
	t.Cleanup(sched2.Close)
	smallSrv, err := NewServer(ServerConfig{Scheduler: sched2, MaxBodyBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(smallSrv)
	t.Cleanup(ts2.Close)
	st, body, _ := postBytes(t, ts2.URL+"/beamform?"+tinyQuery(nil), wire.ContentType, frame(nil)[:wire.HeaderBytes])
	if st != 413 {
		t.Errorf("oversized declared payload: status %d, want 413 (%s)", st, body)
	}

	// Raw path: a declared Content-Length over the cap is refused before
	// buffering (413), a ragged one before decoding (400).
	st, body, _ = postBytes(t, ts2.URL+"/beamform?"+tinyQuery(nil), "application/octet-stream", make([]byte, 2048))
	if st != 413 {
		t.Errorf("raw oversized: status %d, want 413 (%s)", st, body)
	}
	st, body, _ = postBytes(t, ts2.URL+"/beamform?"+tinyQuery(nil), "application/octet-stream", make([]byte, 12))
	if st != 400 {
		t.Errorf("raw ragged: status %d, want 400 (%s)", st, body)
	}
}

// TestDecodedElementViewsAreCapped: both ingest routes cut every element's
// view out of one backing array with a full slice expression, so an append
// or reslice on one element cannot reach into its neighbour's samples.
func TestDecodedElementViewsAreCapped(t *testing.T) {
	req := tinyRequest()
	bufs := tinyFrame(t, req.Spec)
	elements := req.Spec.Elements()

	fromRaw, err := readFrame(bytes.NewReader(encodeFrame(bufs)), elements, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := readWirePayload(bytes.NewReader(encodeWire(t, wire.EncodingF64, [][]rf.EchoBuffer{bufs}, 0)), req, 1, 1<<30, &wireRecorder{})
	if err != nil {
		t.Fatal(err)
	}
	for name, views := range map[string][]rf.EchoBuffer{"raw body": fromRaw, "wire frame": p.tx[0]} {
		if len(views) != elements {
			t.Fatalf("%s: %d views for %d elements", name, len(views), elements)
		}
		for d, b := range views {
			if len(b.Samples) == 0 || cap(b.Samples) != len(b.Samples) {
				t.Fatalf("%s element %d: len %d cap %d — the view reaches past its own window", name, d, len(b.Samples), cap(b.Samples))
			}
		}
	}
}
