// End-to-end tests for the prec=i16 serving path: an i16 wire body on a
// PrecisionInt16 session decodes straight into a guarded int16 plane (the
// zero-conversion ingest), rides BeamformBatchPlanesI16 through both
// serving modes and the cine stream, and shows up in the plane-decode
// counters split by target precision.
package serve

import (
	"bytes"
	"net/http"
	"net/url"
	"strconv"
	"testing"

	"ultrabeam/internal/core"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
)

// TestServerWireI16Session: scheduled mode, precision=i16. An i16 body
// takes the int16-plane fast path (counted as plane_decodes_i16); an f32
// body to the same session falls back to float64 buffers (the session
// quantizes in its convert phase) — both reconstruct the f64 reference
// above 60 dB.
func TestServerWireI16Session(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}

	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(nil), wire.ContentType,
		encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64 reference: %d: %s", st, refRaw)
	}
	ref := decodeFloats(t, refRaw)

	q := tinyQuery(url.Values{"precision": {"i16"}})
	for _, enc := range []wire.Encoding{wire.EncodingI16, wire.EncodingF32} {
		st, raw, _ := postBytes(t, ts.URL+"/beamform?"+q+"&fmt="+enc.String(), wire.ContentType,
			encodeWire(t, enc, tx, 8192))
		if st != http.StatusOK {
			t.Fatalf("%s on i16 session: %d: %s", enc, st, raw)
		}
		if db := psnr(ref, decodeFloats(t, raw)); db < 60 {
			t.Errorf("%s on i16 session: PSNR = %.1f dB, want ≥ 60", enc, db)
		}
	}

	ws := sched.Stats().Wire
	if ws.PlaneDecodesI16 != 1 {
		t.Errorf("plane_decodes_i16 = %d, want 1 (only the i16 body takes the int16 plane)", ws.PlaneDecodesI16)
	}
	if ws.PlaneDecodesF32 != 0 {
		t.Errorf("plane_decodes_f32 = %d, want 0 (f32 body on an i16 session decodes to buffers)", ws.PlaneDecodesF32)
	}
	if ws.PlaneDecodes != ws.PlaneDecodesF32+ws.PlaneDecodesI16 {
		t.Errorf("plane_decodes = %d, want the sum of the split (%d + %d)",
			ws.PlaneDecodes, ws.PlaneDecodesF32, ws.PlaneDecodesI16)
	}
}

// TestServerWireI16Compound: a multi-transmit i16 compound rides the
// int16-plane path per transmit; a compound that switches encoding after
// an i16 first frame is a protocol violation answered with 400.
func TestServerWireI16Compound(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs, bufs}
	q := tinyQuery(url.Values{"precision": {"i16"}, "transmits": {"2"}})

	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(url.Values{"transmits": {"2"}}),
		wire.ContentType, encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64 reference: %d: %s", st, refRaw)
	}
	st, raw, _ := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType,
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
	st, body, _ := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType, mixed.Bytes())
	if st != http.StatusBadRequest {
		t.Errorf("mixed-encoding compound: %d (%s), want 400", st, body)
	}
}

// TestServerWireI16PoolMode: checkout mode routes an i16 body on an i16
// session through BeamformBatchPlanesI16.
func TestServerWireI16PoolMode(t *testing.T) {
	ts, p := newTestServer(t, PoolConfig{MaxSessions: 1})
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}

	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(nil), wire.ContentType,
		encodeWire(t, wire.EncodingF64, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("f64: %d: %s", st, refRaw)
	}
	q := tinyQuery(url.Values{"precision": {"i16"}})
	st, raw, _ := postBytes(t, ts.URL+"/beamform?"+q, wire.ContentType,
		encodeWire(t, wire.EncodingI16, tx, 0))
	if st != http.StatusOK {
		t.Fatalf("i16: %d: %s", st, raw)
	}
	if db := psnr(decodeFloats(t, refRaw), decodeFloats(t, raw)); db < 60 {
		t.Errorf("pool-mode i16 PSNR = %.1f dB, want ≥ 60", db)
	}
	if ws := p.Stats().Wire; ws.PlaneDecodesI16 != 1 {
		t.Errorf("pool plane_decodes_i16 = %d, want 1: %+v", ws.PlaneDecodesI16, ws)
	}
}

// TestStreamCineI16: the cine stream carries the zero-conversion path too
// — an i16 hello (precision=i16&fmt=i16), a pipelined burst, volumes back
// in order above 60 dB, and every frame counted as an i16 plane decode.
func TestStreamCineI16(t *testing.T) {
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	bufs := tinyFrame(t, spec)
	tx := [][]rf.EchoBuffer{bufs}

	st, refRaw, _ := postBytes(t, ts.URL+"/beamform?"+tinyQuery(nil), wire.ContentType,
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
	ts, sched := newSchedTestServer(t, SchedulerConfig{MaxBatch: 4})
	srv, err := NewServer(ServerConfig{Scheduler: sched})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.DepthLambda = core.ReducedSpec().DepthLambda
	// Each transmit's echoes from its own axial source, so the compound
	// focuses (echoes from the array center would miss every voxel).
	var tx [][]rf.EchoBuffer
	for _, o := range delayAxialSet(3, spec) {
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
