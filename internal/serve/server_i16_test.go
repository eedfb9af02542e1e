// End-to-end tests for the precision=i16 serving path: an i16 wire body on
// a PrecisionInt16 session decodes straight into a guarded int16 plane (the
// zero-conversion ingest), rides Session.Run as a plane beamform.Frame over
// HTTP and the cine stream, and shows up in the plane-decode counter.
package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"ultrabeam/internal/core"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// TestServerWireI16Session: precision=i16. An i16 body
// takes the int16-plane fast path (counted as plane_decodes_i16); an f32
// body to the same session falls back to float64 buffers (the session
// quantizes in its convert phase) — both reconstruct the f64 reference
// above 60 dB.
func TestServerWireI16Session(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}

	st, refRaw, _ := postBytes(t, ts.URL+"/v1/beamform?"+tinyQuery(nil), wire.ContentType,
		encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64 reference: %d: %s", st, refRaw)
	}
	ref := decodeFloats(t, refRaw)

	q := tinyQuery(url.Values{"precision": {"i16"}})
	for _, enc := range []wire.Encoding{wire.EncodingI16, wire.EncodingF32} {
		st, raw, _ := postBytes(t, ts.URL+"/v1/beamform?"+q+"&fmt="+enc.String(), wire.ContentType,
			encodeWire(t, enc, tx, 8192))
		if st != http.StatusOK {
			t.Fatalf("%s on i16 session: %d: %s", enc, st, raw)
		}
		if db := psnr(ref, decodeFloats(t, raw)); db < 60 {
			t.Errorf("%s on i16 session: PSNR = %.1f dB, want ≥ 60", enc, db)
		}
	}

	if ws := sched.Stats().Wire; ws.PlaneDecodesI16 != 1 {
		t.Errorf("plane_decodes_i16 = %d, want 1 (only the i16 body takes the int16 plane)", ws.PlaneDecodesI16)
	}
}

// TestServerWireI16Compound: a multi-transmit i16 compound rides the
// int16-plane path per transmit; a compound that switches encoding after
// an i16 first frame is a protocol violation answered with 400.
func TestServerWireI16Compound(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs, bufs}
	q := tinyQuery(url.Values{"precision": {"i16"}, "transmits": {"2"}})

	st, refRaw, _ := postBytes(t, ts.URL+"/v1/beamform?"+tinyQuery(url.Values{"transmits": {"2"}}),
		wire.ContentType, encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64 reference: %d: %s", st, refRaw)
	}
	st, raw, _ := postBytes(t, ts.URL+"/v1/beamform?"+q, wire.ContentType,
		encodeWire(t, wire.EncodingI16, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("i16 compound: %d: %s", st, raw)
	}
	if db := psnr(decodeFloats(t, refRaw), decodeFloats(t, raw)); db < 60 {
		t.Errorf("i16 compound PSNR = %.1f dB, want ≥ 60", db)
	}
	if ws := sched.Stats().Wire; ws.PlaneDecodesI16 != 2 {
		t.Errorf("plane_decodes_i16 = %d, want 2 (one per transmit)", ws.PlaneDecodesI16)
	}

	// Mixed encodings after an i16 first frame: the int16 planes are already
	// committed, so an f64 second frame — correct transmit index and window,
	// only the encoding at fault — must be refused, not re-quantized.
	var mixed bytes.Buffer
	for i, enc := range []wire.Encoding{wire.EncodingI16, wire.EncodingF64} {
		f, err := wire.NewFrame(enc, len(bufs), len(bufs[0].Samples), i, 2, flatten(bufs))
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&mixed, f, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, body, _ := postBytes(t, ts.URL+"/v1/beamform?"+q, wire.ContentType, mixed.Bytes())
	if st != http.StatusBadRequest {
		t.Errorf("mixed-encoding compound: %d (%s), want 400", st, body)
	}
}

// TestStreamCineI16: the cine stream carries the zero-conversion path too
// — an i16 hello (precision=i16&fmt=i16), a pipelined burst, volumes back
// in order above 60 dB, and every frame counted as an i16 plane decode.
func TestStreamCineI16(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}

	st, refRaw, _ := postBytes(t, ts.URL+"/v1/beamform?"+tinyQuery(nil), wire.ContentType,
		encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("reference POST: %d: %s", st, refRaw)
	}
	ref := decodeFloats(t, refRaw)

	conn := dialStream(t, srv)
	if err := wire.WriteHello(conn, tinyQuery(url.Values{"precision": {"i16"}, "fmt": {"i16"}})); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHelloReply(conn); err != nil {
		t.Fatalf("i16 hello refused: %v", err)
	}

	const n = 4
	body := encodeWire(t, wire.EncodingI16, tx, 8192)
	for i := 0; i < n; i++ {
		if _, err := conn.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		vol, err := wire.ReadVolume(conn, 0)
		if err != nil {
			t.Fatalf("volume %d: %v", i, err)
		}
		if db := psnr(ref, vol.Data); db < 60 {
			t.Errorf("volume %d PSNR = %.1f dB, want ≥ 60", i, db)
		}
	}
	if ws := sched.Stats().Wire; ws.PlaneDecodesI16 < n {
		t.Errorf("plane_decodes_i16 = %d, want ≥ %d", ws.PlaneDecodesI16, n)
	}
}

// TestTableSteerI16BudgetInvariant: served TABLESTEER i16 compounds are
// budget-invariant byte for byte — over HTTP and over the cine stream —
// while the route a nappe takes is not: at budget=none every nappe runs the
// fused steer body (on AVX2 hosts), at full residency none does, and half a
// budget mixes resident blocks with fused misses in one volume.
func TestTableSteerI16BudgetInvariant(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	// Each transmit's echoes from its own axial source, so the compound
	// focuses (echoes from the array center would miss every voxel).
	var tx [][]rf.EchoBuffer
	for _, o := range spec.AxialTransmits(3) {
		bufs, err := rf.Synthesize(rf.Config{
			Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
			Origin: o.Origin, BufSamples: spec.EchoBufferSamples(),
		}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
		if err != nil {
			t.Fatal(err)
		}
		tx = append(tx, bufs)
	}
	body := encodeWire(t, wire.EncodingI16, tx, 0)
	block := spec.FocalTheta * spec.FocalPhi * spec.ElemX * spec.ElemY * 2
	half := strconv.Itoa(block * spec.FocalDepth * len(tx) / 2)
	query := func(budget string) string {
		q := url.Values{"arch": {"tablesteer"}, "precision": {"i16"}, "fmt": {"i16"}, "transmits": {"3"}}
		if budget != "" {
			q.Set("budget", budget)
		}
		return tinyQuery(q)
	}

	st, want, _ := postBytes(t, ts.URL+"/v1/beamform?"+query(""), wire.ContentType, body)
	if st != http.StatusOK {
		t.Fatalf("full residency: %d: %s", st, want)
	}
	ref, peak := decodeFloats(t, want), 0.0
	for _, v := range ref {
		peak = max(peak, v, -v)
	}
	if peak == 0 {
		t.Fatal("the compound is all zero: the comparison proves nothing")
	}
	for _, budget := range []string{"none", half} {
		st, got, _ := postBytes(t, ts.URL+"/v1/beamform?"+query(budget), wire.ContentType, body)
		if st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("budget=%s: HTTP %d reply differs from full residency's", budget, st)
		}
		conn := dialStream(t, srv)
		if err := wire.WriteHello(conn, query(budget)); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadHelloReply(conn); err != nil {
			t.Fatalf("budget=%s hello refused: %v", budget, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := conn.Write(body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			vol, err := wire.ReadVolume(conn, 0)
			if err != nil {
				t.Fatalf("budget=%s stream volume %d: %v", budget, i, err)
			}
			for j := range ref {
				if vol.Data[j] != ref[j] {
					t.Fatalf("budget=%s stream volume %d voxel %d: %v != %v", budget, i, j, vol.Data[j], ref[j])
				}
			}
		}
	}
}

// TestTableFreeI16BudgetInvariant: served TABLEFREE i16 volumes, single and
// 3-transmit axial compound, are budget-invariant byte for byte over HTTP:
// at budget=none every nappe is filled on the miss, at full residency every
// nappe is a resident block, and half a budget mixes both in one volume.
func TestTableFreeI16BudgetInvariant(t *testing.T) {
	ts, _ := newSchedTestServer(t, SchedulerConfig{})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	for _, nTx := range []int{1, 3} {
		// A single transmit fires from the array center; a compound's
		// transmits each from its own axial source.
		tx := [][]rf.EchoBuffer{tinyFrame(t, spec)}
		if nTx > 1 {
			tx = nil
			for _, o := range spec.AxialTransmits(nTx) {
				bufs, err := rf.Synthesize(rf.Config{
					Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
					Origin: o.Origin, BufSamples: spec.EchoBufferSamples(),
				}, rf.PointPhantom(geom.Vec3{Z: 0.6 * spec.Depth()}))
				if err != nil {
					t.Fatal(err)
				}
				tx = append(tx, bufs)
			}
		}
		body := encodeWire(t, wire.EncodingI16, tx, 0)
		block := spec.FocalTheta * spec.FocalPhi * spec.ElemX * spec.ElemY * 2
		half := strconv.Itoa(block * spec.FocalDepth * nTx / 2)
		query := func(budget string) string {
			q := url.Values{"arch": {"tablefree"}, "precision": {"i16"}, "fmt": {"i16"}}
			if nTx > 1 {
				q.Set("transmits", strconv.Itoa(nTx))
			}
			if budget != "" {
				q.Set("budget", budget)
			}
			return tinyQuery(q)
		}
		st, want, _ := postBytes(t, ts.URL+"/v1/beamform?"+query(""), wire.ContentType, body)
		if st != http.StatusOK {
			t.Fatalf("transmits=%d full residency: %d: %s", nTx, st, want)
		}
		peak := 0.0
		for _, v := range decodeFloats(t, want) {
			peak = max(peak, v, -v)
		}
		if peak == 0 {
			t.Fatalf("transmits=%d: the volume is all zero: the comparison proves nothing", nTx)
		}
		for _, budget := range []string{"none", half} {
			st, got, _ := postBytes(t, ts.URL+"/v1/beamform?"+query(budget), wire.ContentType, body)
			if st != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("transmits=%d budget=%s: HTTP %d reply differs from full residency's", nTx, budget, st)
			}
		}
	}
}

// TestServerWireI16PastAccumulatorBound: a 200×200 rect aperture defeats
// the i16 kernel's int32 accumulator bound, so a precision=i16 session runs
// the float64 kernel. An i16 body still decodes into int16 planes there;
// the session widens them exactly as the float64 decode would, so the
// answer is 200 and the volume is bitwise the precision=float64 one.
func TestServerWireI16PastAccumulatorBound(t *testing.T) {
	// A 40,000-element volume takes seconds under -race: the queue bound is
	// raised past the default 10 s so only a wrong answer fails the test.
	sched := NewScheduler(SchedulerConfig{})
	t.Cleanup(sched.Close)
	srv, err := NewServer(ServerConfig{Scheduler: sched, AcquireTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	// One scanline on a fine depth axis: nappe 0's central delays (≈ 40
	// samples) fall inside the short window, and budget=none keeps the
	// 40,000-element aperture's delays out of memory.
	const nx, ny, win = 200, 200, 64
	samples := make([]float64, nx*ny*win)
	for i := range samples {
		samples[i] = float64(i*7919%2001 - 1000)
	}
	fr, err := wire.NewFrame(wire.EncodingI16, nx*ny, win, 0, 1, samples)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := wire.WriteFrame(&body, fr, 0); err != nil {
		t.Fatal(err)
	}
	vols := map[string][]float64{}
	for _, prec := range []string{"i16", "float64"} {
		q := url.Values{
			"spec": {"reduced"}, "elemx": {strconv.Itoa(nx)}, "elemy": {strconv.Itoa(ny)},
			"ftheta": {"1"}, "fphi": {"1"}, "fdepth": {"200"}, "window": {"rect"},
			"arch": {"exact"}, "budget": {"none"}, "precision": {prec},
		}
		st, raw, _ := postBytes(t, ts.URL+"/v1/beamform?"+q.Encode(), wire.ContentType, body.Bytes())
		if st != http.StatusOK {
			t.Fatalf("precision=%s: %d: %s", prec, st, raw)
		}
		vols[prec] = decodeFloats(t, raw)
	}
	nonzero := false
	for i, v := range vols["float64"] {
		if math.Float64bits(v) != math.Float64bits(vols["i16"][i]) {
			t.Fatalf("voxel %d: precision=i16 %v, precision=float64 %v", i, vols["i16"][i], v)
		}
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Error("volume is all zero: the comparison proves nothing")
	}
	if ws := sched.Stats().Wire; ws.PlaneDecodesI16 != 1 {
		t.Errorf("plane_decodes_i16 = %d, want 1 (the i16 session's body took the plane form)", ws.PlaneDecodesI16)
	}
}
