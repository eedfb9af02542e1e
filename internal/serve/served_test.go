// The served matrix. A served volume must equal what Session.Run computes
// from the same decoded frame: the scheduler only orders frames, the store
// only decides where a block comes from, the transports only move bytes.
// One case generator (servedCases) ranges over the transport (a POST per
// frame or a pipelined cine stream), body encoding and chunk size,
// precision, architecture, residency, transmits, reply (f64 or f32, volume
// or scanline), lane and frame order. Each reply must equal, byte for byte,
// the reply a twin gives: a solo NewSessionConfig session's Run on the
// frame the wire package decodes from the same body. Each case also pins
// the scheduler, wire and store counters. The Test* functions are the
// matrix's rows: each retired test name runs the first generated case of
// the shape it held (servedRows); TestServedConformance runs the rest.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"testing"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/wire"
	"ultrabeam/internal/xdcr"
)

// servedCase is one served shape of the matrix.
type servedCase struct {
	stream   bool // a pipelined cine stream, else one POST per frame
	enc      wire.Encoding
	chunk    int // payload chunk bytes; 0 is wire.DefaultChunk
	prec     beamform.Precision
	arch     Arch
	budget   string // "uncached" (budget=none), "full", "half", "none" (budget=0) or "7" blocks
	nTx      int
	resp     wire.Encoding
	scanline bool   // reply the (servedTheta, servedPhi) scanline
	lane     string // "", "param" (lane=bulk) or "override" (interactive on even frames)
	order    []int  // scene frames, served in turn
}

func (c servedCase) String() string {
	return fmt.Sprintf("stream=%v/%s-%d/%s/%s/%s/tx%d/%s/scanline=%v/lane=%s/%v",
		c.stream, c.enc, c.chunk, c.arch, c.prec, c.budget, c.nTx, c.resp, c.scanline, c.lane, c.order)
}

var (
	servedArchs = []Arch{ArchTableFree, ArchTableSteer, ArchExact}
	servedPrecs = []beamform.Precision{beamform.PrecisionFloat64, beamform.PrecisionInt16}
	servedEncs  = []wire.Encoding{wire.EncodingF64, wire.EncodingF32, wire.EncodingI16}
	servedResps = []wire.Encoding{wire.EncodingF64, wire.EncodingF32}
	servedLanes = []string{"", "param", "override"}
	// servedOrders each cross the window change; two repeat a frame.
	servedOrders = [][]int{{0, 1, 2}, {2, 0, 0}, {1, 1, 2}}
)

const (
	servedTheta, servedPhi = 6, 1 // the scanline; swapped, (1, 6) is another line of the 9×3 grid
	servedWin              = 2000 // echo samples: nappes 0 and 1 inside, the deeper ones clamped to the guard
	longFrame              = 3    // the scene frame one sample past delay.MaxEchoWindow
)

// servedCases is the generator: every architecture, precision and
// residency, the other axes rotating so that every transport meets every
// body encoding, chunk size, reply, lane and order, and every residency
// every body encoding; and the long frame as an f64 body at float64 and an
// i16 body at i16, which no int16 plane holds.
func servedCases() (out []servedCase) {
	for _, arch := range servedArchs {
		for _, prec := range servedPrecs {
			for _, r := range []struct {
				budget string
				nTx    int
			}{
				{"uncached", 1}, {"full", 1}, {"half", 1}, {"none", 1},
				{"uncached", 3}, {"full", 3}, {"half", 3}, {"none", 3}, {"7", 2},
			} {
				i := len(out)
				c := servedCase{
					stream: (i+i/18)%2 == 1, enc: servedEncs[(i+i/9)%3], chunk: []int{0, 8192}[i/6%2],
					prec: prec, arch: arch, budget: r.budget, nTx: r.nTx,
					resp: servedResps[i/2%2], scanline: i/4%2 == 1,
					lane: servedLanes[i/8%3], order: servedOrders[i/5%3],
				}
				out = append(out, c)
			}
		}
	}
	for i, enc := range []wire.Encoding{wire.EncodingF64, wire.EncodingI16} {
		out = append(out, servedCase{enc: enc, prec: servedPrecs[i], arch: ArchTableFree, budget: "full", nTx: 1,
			resp: wire.EncodingF64, order: []int{longFrame, longFrame}})
	}
	return out
}

// servedRows names, in claim order, the shape each retired test held; the
// row claims the first generated case of that shape no earlier row claimed.
var servedRows = []struct {
	name  string
	shape func(c servedCase) bool
}{
	{"TestServerWireLongWindowF64", func(c servedCase) bool { return c.order[0] == longFrame && c.enc == wire.EncodingF64 }},
	{"TestSchedulerStoreKeepsInterleavedPrefix", func(c servedCase) bool { return c.budget == "7" }},
	{"TestTableFreeI16BudgetInvariant", func(c servedCase) bool { return c.arch == ArchTableFree && c.i16Planes() }},
	{"TestTableSteerI16BudgetInvariant", func(c servedCase) bool { return c.arch == ArchTableSteer && c.i16Planes() }},
	{"TestStreamCineI16", func(c servedCase) bool { return c.stream && c.i16Planes() }},
	{"TestStreamCine", func(c servedCase) bool { return c.stream && c.enc != wire.EncodingF64 && c.resp == wire.EncodingF32 }},
	{"TestStreamScanline", func(c servedCase) bool { return c.stream && c.scanline }},
	{"TestReplyMatchesStreamPayload", func(c servedCase) bool { return c.stream && c.enc == wire.EncodingF64 }},
	{"TestSchedulerBitIdentityEveryPrecision", func(c servedCase) bool { return c.stream && c.lane == "override" }},
	{"TestSchedulerBatchesBacklog", func(c servedCase) bool { return c.stream && c.lane == "param" }},
	{"TestSchedulerMixedShapesSplitBatches", func(c servedCase) bool { return c.stream && c.order[0] == 2 }},
	{"TestServerWireI16Compound", func(c servedCase) bool { return !c.stream && c.enc == wire.EncodingI16 && c.nTx > 1 }},
	{"TestServerWireI16Session", func(c servedCase) bool {
		return !c.stream && c.prec == beamform.PrecisionInt16 && c.enc != wire.EncodingF64
	}},
	{"TestServerWireNarrowPSNR", func(c servedCase) bool { return !c.stream && c.enc != wire.EncodingF64 }},
	{"TestServerWireF64BitIdentity", func(c servedCase) bool { return !c.stream && c.prec == beamform.PrecisionInt16 }},
	{"TestServerWireCompound", func(c servedCase) bool { return !c.stream && c.nTx > 1 }},
	{"TestServerWireF32Response", func(c servedCase) bool { return !c.stream && c.resp == wire.EncodingF32 }},
	{"TestServerBeamformVolume", func(c servedCase) bool { return !c.stream && c.scanline }},
	{"TestServerScheduledBitIdentity", func(c servedCase) bool { return !c.stream && c.lane == "override" }},
	{"TestServerScheduledStats", func(c servedCase) bool { return !c.stream && c.lane == "param" }},
	{"TestServerStats", func(c servedCase) bool { return !c.stream }},
}

// servedRow runs the cases t's row claims: TestServedConformance's are
// those no named row claims.
func servedRow(t *testing.T) {
	cases := servedCases()
	claims := make([]string, len(cases))
	for _, r := range servedRows {
		for i, c := range cases {
			if claims[i] == "" && r.shape(c) {
				claims[i] = r.name
				break
			}
		}
	}
	if t.Name() != "TestServedConformance" && !slices.Contains(claims, t.Name()) {
		t.Fatal("the row claims no generated case")
	}
	for i, c := range cases {
		if claims[i] == t.Name() || claims[i] == "" && t.Name() == "TestServedConformance" {
			t.Run(c.String(), c.run)
		}
	}
}

func TestServedConformance(t *testing.T)                    { servedRow(t) }
func TestServerWireLongWindowF64(t *testing.T)              { servedRow(t) }
func TestSchedulerStoreKeepsInterleavedPrefix(t *testing.T) { servedRow(t) }
func TestTableFreeI16BudgetInvariant(t *testing.T)          { servedRow(t) }
func TestTableSteerI16BudgetInvariant(t *testing.T)         { servedRow(t) }
func TestStreamCineI16(t *testing.T)                        { servedRow(t) }
func TestStreamCine(t *testing.T)                           { servedRow(t) }
func TestStreamScanline(t *testing.T)                       { servedRow(t) }
func TestReplyMatchesStreamPayload(t *testing.T)            { servedRow(t) }
func TestSchedulerBitIdentityEveryPrecision(t *testing.T)   { servedRow(t) }
func TestSchedulerBatchesBacklog(t *testing.T)              { servedRow(t) }
func TestSchedulerMixedShapesSplitBatches(t *testing.T)     { servedRow(t) }
func TestServerWireI16Compound(t *testing.T)                { servedRow(t) }
func TestServerWireI16Session(t *testing.T)                 { servedRow(t) }
func TestServerWireNarrowPSNR(t *testing.T)                 { servedRow(t) }
func TestServerWireF64BitIdentity(t *testing.T)             { servedRow(t) }
func TestServerWireCompound(t *testing.T)                   { servedRow(t) }
func TestServerWireF32Response(t *testing.T)                { servedRow(t) }
func TestServerBeamformVolume(t *testing.T)                 { servedRow(t) }
func TestServerScheduledBitIdentity(t *testing.T)           { servedRow(t) }
func TestServerScheduledStats(t *testing.T)                 { servedRow(t) }
func TestServerStats(t *testing.T)                          { servedRow(t) }

// FuzzServedConformance drives the matrix past its generator. shape picks,
// byte by byte, the transport, architecture, precision, body encoding,
// transmit count (one more than the byte), residency, reply encoding,
// scanline, lane and chunk size; order serves up to four of the scene's
// first three frames in any sequence (frame 0 when empty). The seeds are
// the four BENCHMARK workloads' query shapes on the tiny geometry.
func FuzzServedConformance(f *testing.F) {
	for _, shape := range [][]byte{
		{1, 0, 1, 2, 0, 1, 1, 0, 0, 0}, // cine_i16_resident: tablefree i16, full residency, stream
		{0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, // post_f64_golden: tablefree float64, f64 bodies over HTTP
		{1, 0, 1, 2, 0, 0, 1, 0, 0, 0}, // tablefree_uncached: budget=none
		{1, 1, 1, 2, 3, 2, 1, 0, 0, 0}, // compound4_steer_half: tablesteer i16, four transmits, half resident
	} {
		f.Add(shape, []byte{0, 1, 2})
	}
	f.Fuzz(func(t *testing.T, shape, order []byte) {
		at := func(i, n int) int {
			if i < len(shape) {
				return int(shape[i]) % n
			}
			return 0
		}
		c := servedCase{
			stream: at(0, 2) == 1, arch: servedArchs[at(1, 3)], prec: servedPrecs[at(2, 2)],
			enc: servedEncs[at(3, 3)], nTx: 1 + at(4, 4), budget: []string{"uncached", "full", "half", "none", "7"}[at(5, 5)],
			resp: servedResps[at(6, 2)], scanline: at(7, 2) == 1, lane: servedLanes[at(8, 3)], chunk: []int{0, 8192}[at(9, 2)],
		}
		for _, k := range order[:min(len(order), 4)] {
			c.order = append(c.order, int(k%3))
		}
		if c.order == nil {
			c.order = []int{0}
		}
		c.run(t)
	})
}

// i16Planes reports whether c's i16 bodies decode into int16 planes.
func (c servedCase) i16Planes() bool {
	return c.prec == beamform.PrecisionInt16 && c.enc == wire.EncodingI16 && c.order[0] != longFrame
}

// servedSpec is the geometry tinyQuery selects: tinySpec's grid and
// aperture at the reduced depth, since the server takes no depth override.
func servedSpec() core.SystemSpec {
	s := tinySpec()
	s.DepthLambda = core.ReducedSpec().DepthLambda
	return s
}

// query is c's request grammar on the tiny geometry. An override case
// POSTs ask for f32 by Accept instead.
func (c servedCase) query() string {
	spec := servedSpec()
	q := url.Values{"arch": {c.arch.String()}, "precision": {c.prec.String()}, "fmt": {c.enc.String()}}
	if c.nTx > 1 {
		q.Set("transmits", strconv.Itoa(c.nTx))
	}
	block := 2 * spec.FocalTheta * spec.FocalPhi * spec.Elements()
	switch c.budget {
	case "uncached":
		q.Set("budget", "none")
	case "half":
		q.Set("budget", strconv.Itoa(block*spec.FocalDepth*c.nTx/2))
	case "none":
		q.Set("budget", "0")
	case "7":
		q.Set("budget", strconv.Itoa(7*block))
	}
	if c.scanline {
		q.Set("out", "scanline")
		q.Set("theta", strconv.Itoa(servedTheta))
		q.Set("phi", strconv.Itoa(servedPhi))
	}
	if c.lane != "" {
		q.Set("lane", "bulk")
	}
	if c.resp == wire.EncodingF32 && (c.stream || c.lane != "override") {
		q.Set("resp", "f32")
	}
	return tinyQuery(q)
}

// servedScene is one transmit count's echoes and their twins.
type servedScene struct {
	base   [][]rf.EchoBuffer           // transmit t's echoes, servedWin samples
	bodies map[string][]byte           // by frame, encoding, chunk size and lane, shared by every case
	twins  map[string]*beamform.Volume // by architecture, precision, frame and body encoding
}

var servedScenes = map[int]*servedScene{}

// servedSceneFor is the scene of nTx transmits, built once per test binary:
// each transmit's echoes of one point phantom, fired from its own axial
// source (the array center for one transmit), plus a little noise.
func servedSceneFor(t testing.TB, nTx int) *servedScene {
	if sc := servedScenes[nTx]; sc != nil {
		return sc
	}
	spec := servedSpec()
	sc := &servedScene{bodies: map[string][]byte{}, twins: map[string]*beamform.Volume{}}
	rng := rand.New(rand.NewSource(45))
	for tx := range nTx {
		var origin geom.Vec3
		if nTx > 1 {
			origin = spec.AxialTransmits(nTx)[tx].Origin
		}
		bufs, err := rf.Synthesize(rf.Config{
			Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
			Origin: origin, BufSamples: servedWin,
		}, rf.PointPhantom(geom.Vec3{Z: 0.2 * spec.Depth()}))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bufs {
			for i := range b.Samples {
				b.Samples[i] += 1e-3 * rng.NormFloat64()
			}
		}
		sc.base = append(sc.base, bufs)
	}
	servedScenes[nTx] = sc
	return sc
}

// frame is scene frame k: the echoes (0), scaled by 1.25 (1), scaled by
// 1.5 with every row 7 samples shorter (2), or frame 1 zero-padded to one
// sample past delay.MaxEchoWindow (longFrame).
func (sc *servedScene) frame(k int) (tx [][]rf.EchoBuffer) {
	scale, win := []float64{1, 1.25, 1.5, 1.25}[k], []int{servedWin, servedWin, servedWin - 7, delay.MaxEchoWindow + 1}[k]
	for _, bufs := range sc.base {
		scaled := make([]rf.EchoBuffer, len(bufs))
		for d, b := range bufs {
			scaled[d].Samples = make([]float64, win)
			for i := range min(win, len(b.Samples)) {
				scaled[d].Samples[i] = scale * b.Samples[i]
			}
		}
		tx = append(tx, scaled)
	}
	return tx
}

// body is frame k as wire frames in enc, each header carrying lane.
func (sc *servedScene) body(t testing.TB, k int, enc wire.Encoding, chunk int, lane uint8) []byte {
	key := fmt.Sprint(k, enc, chunk, lane)
	if b := sc.bodies[key]; b != nil {
		return b
	}
	b := encodeWire(t, enc, sc.frame(k), chunk)
	for tx := range len(sc.base) {
		b[tx*len(b)/len(sc.base)+6] = lane // the transmit frames are one length; header byte 6 is the lane
	}
	sc.bodies[key] = b
	return b
}

// twin is the volume a solo uncached session of arch and prec computes from
// frame k's body in enc, decoded as decodeWireFrame decodes it: into
// guarded int16 planes for an i16 body on an i16 session within
// delay.MaxEchoWindow, else into float64 rows. Each twin but the f64 body's
// float64 one must lie within 60 dB of that one.
func (sc *servedScene) twin(t testing.TB, arch Arch, prec beamform.Precision, k int, enc wire.Encoding) *beamform.Volume {
	key := fmt.Sprint(arch, prec, k, enc)
	if v := sc.twins[key]; v != nil {
		return v
	}
	spec := servedSpec()
	cfg := core.SessionConfig{Window: xdcr.Hann, Precision: prec}
	if len(sc.base) > 1 {
		cfg.Transmits = spec.AxialTransmits(len(sc.base))
	}
	sess, _, err := spec.NewSessionConfig(cfg, arch.NewProvider(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r := bytes.NewReader(sc.body(t, k, enc, 0, 0))
	var f beamform.Frame
	for range sc.base {
		h, err := wire.ReadHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		if prec == beamform.PrecisionInt16 && enc == wire.EncodingI16 && h.Window <= delay.MaxEchoWindow {
			plane := make([]int16, h.Elements*(h.Window+1))
			err = wire.DecodePlaneI16(r, h, plane, h.Window+1)
			f.Planes, f.Scales, f.Win = append(f.Planes, plane), append(f.Scales, h.Scale), h.Window
		} else {
			samples := make([]float64, h.Samples())
			err = wire.DecodeF64(r, h, samples)
			bufs := make([]rf.EchoBuffer, h.Elements)
			for d := range bufs {
				bufs[d].Samples = samples[d*h.Window : (d+1)*h.Window]
			}
			f.Bufs = append(f.Bufs, bufs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	v := sess.NewVolume()
	if err := sess.Run(v, f); err != nil {
		t.Fatal(err)
	}
	ref := v // a zero-energy reference fails: a comparison with it proves nothing
	if prec == beamform.PrecisionInt16 || enc != wire.EncodingF64 {
		ref = sc.twin(t, arch, beamform.PrecisionFloat64, k, wire.EncodingF64)
	}
	if db, err := beamform.PeakSignalRatio(ref, v); err != nil || db < 60 {
		t.Fatalf("%s: twin PSNR %.1f dB against the float64 one (%v), want ≥ 60", key, db, err)
	}
	sc.twins[key] = v
	return v
}

// reply is what every transport must answer c with for twin: the volume or
// the scanline, as little-endian float64, or float32(twin) for f32.
func (c servedCase) reply(twin *beamform.Volume) []byte {
	data := twin.Data
	if c.scanline {
		data = twin.Scanline(servedTheta, servedPhi)
	}
	out := make([]byte, len(data)*c.resp.SampleBytes())
	wire.PutVolumeSamples(out, c.resp, data)
	return out
}

// run serves c's frames on a fresh scheduler and holds every reply to its
// twin, then pins the counters.
func (c servedCase) run(t *testing.T) {
	sc := servedSceneFor(t, c.nTx)
	ts, sched := newSchedTestServer(t, SchedulerConfig{})
	var bodies, replies [][]byte
	var bytesIn, bytesOut int64
	for n, k := range c.order {
		lane := uint8(0)
		if c.stream && c.interactive(n) {
			lane = 1 // over the hello's lane=bulk; 0 keeps it
		}
		bodies = append(bodies, sc.body(t, k, c.enc, c.chunk, lane))
		bytesIn += int64(len(bodies[n]))
	}
	if c.stream {
		replies = c.streamFrames(t, ts.Config.Handler.(*Server), sched, bodies)
	} else {
		for n, b := range bodies {
			replies = append(replies, c.post(t, ts.URL, n, b))
		}
	}
	for n, k := range c.order {
		want := c.reply(sc.twin(t, c.arch, c.prec, k, c.enc))
		if !bytes.Equal(replies[n], want) {
			t.Fatalf("reply %d (scene frame %d): its %d bytes differ from the twin's %d", n, k, len(replies[n]), len(want))
		}
		bytesOut += int64(len(want))
	}
	c.pin(t, sched, ts.URL, bytesIn, bytesOut)
}

// interactive reports whether frame n overrides lane=bulk with interactive.
func (c servedCase) interactive(n int) bool { return c.lane == "override" && n%2 == 0 }

// post serves frame n over HTTP and checks the reply's headers.
func (c servedCase) post(t *testing.T, base string, n int, body []byte) []byte {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/beamform?"+c.query(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	if c.interactive(n) {
		req.Header.Set("X-Ultrabeam-Lane", "interactive")
	}
	if c.lane == "override" && c.resp == wire.EncodingF32 {
		req.Header.Set("Accept", "application/x-ultrabeam-f32")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %s: %s (%v)", resp.Status, raw, err)
	}
	spec, line := servedSpec(), ""
	if c.scanline {
		line = fmt.Sprintf("%d,%d", servedTheta, servedPhi)
	}
	for k, v := range map[string]string{
		"X-Ultrabeam-Encoding": c.resp.String(), "X-Ultrabeam-Scanline": line,
		"X-Ultrabeam-Theta": strconv.Itoa(spec.FocalTheta), "X-Ultrabeam-Phi": strconv.Itoa(spec.FocalPhi),
		"X-Ultrabeam-Depth": strconv.Itoa(spec.FocalDepth),
	} {
		if got := resp.Header.Get(k); got != v {
			t.Errorf("%s: %q, want %q", k, got, v)
		}
	}
	return raw
}

// streamFrames serves the bodies over one pipelined cine stream, queued
// behind the held core slot before the first dispatch (a backlog of both
// windows of a crossing order), and returns each volume's payload bytes
// after checking its header; the stream closes before the counters are read.
func (c servedCase) streamFrames(t *testing.T, srv *Server, sched *Scheduler, bodies [][]byte) [][]byte {
	conn := helloStream(t, srv, c.query())
	sched.slots <- struct{}{}
	for _, b := range bodies {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	waitQueued(sched, len(bodies))
	<-sched.slots // open the turnstile
	spec := servedSpec()
	theta, phi := spec.FocalTheta, spec.FocalPhi
	if c.scanline {
		theta, phi = 1, 1
	}
	var out [][]byte
	for n := range bodies {
		vol, err := wire.ReadVolume(conn, 0)
		if err != nil {
			t.Fatalf("stream volume %d: %v", n, err)
		}
		if vol.Encoding != c.resp || vol.Theta != theta || vol.Phi != phi || vol.Depth != spec.FocalDepth {
			t.Fatalf("stream volume %d: %s %d×%d×%d", n, vol.Encoding, vol.Theta, vol.Phi, vol.Depth)
		}
		payload := make([]byte, len(vol.Data)*c.resp.SampleBytes()) // f32 widens exactly, so this is the wire payload
		wire.PutVolumeSamples(payload, c.resp, vol.Data)
		out = append(out, payload)
	}
	conn.Close()
	waitStreamCloses(t, sched, func(ws WireStats) bool { return ws.StreamClosesClean == 1 })
	return out
}

// pin holds the /v1/stats counters to c: every frame submitted, dispatched
// alone on its lane and completed, every transmit frame counted by its
// encoding (and as a plane decode when it took the int16 plane), the bytes
// each way, and the store holding its budget's interleaved (nappe,
// transmit) prefix, which every frame after the first hits.
func (c servedCase) pin(t *testing.T, sched *Scheduler, base string, bytesIn, bytesOut int64) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st SchedulerStats
	if err := json.Unmarshal(raw, &st); err != nil || len(st.Geometries) != 1 {
		t.Fatalf("stats (%v): %s", err, raw)
	}
	for key, want := range map[string]bool{`"lanes"`: true, `"batches"`: true, `"batched_frames"`: true, `"queued"`: true,
		`"max_batch"`: false, `"batch_size_counts"`: false} {
		if bytes.Contains(raw, []byte(key)) != want {
			t.Errorf("stats JSON carries %s: %v, want %v", key, !want, want)
		}
	}
	n, frames := int64(len(c.order)), int64(len(c.order)*c.nTx)
	bulk := map[string]int64{"param": n, "override": n / 2}[c.lane]
	encFrames, planes, streams := map[wire.Encoding]int64{c.enc: frames}, int64(0), int64(0)
	if c.i16Planes() {
		planes = frames
	}
	if c.stream {
		streams = 1
	}
	g := st.Geometries[0]
	got := []int64{st.Submits, st.Completed, st.Batches, st.Fused, st.Lanes["interactive"].Dispatched,
		st.Lanes["bulk"].Dispatched, g.Frames, st.Wire.FramesI16, st.Wire.FramesF32, st.Wire.FramesF64,
		st.Wire.PlaneDecodesI16, st.Wire.BytesIn, st.Wire.BytesOut, st.Wire.Streams}
	want := []int64{n, n, n, n, n - bulk, bulk, n, encFrames[wire.EncodingI16], encFrames[wire.EncodingF32],
		encFrames[wire.EncodingF64], planes, bytesIn, bytesOut, streams}
	if !slices.Equal(got, want) {
		t.Errorf("submits, completed, batches, batched frames, interactive and bulk dispatches, geometry frames, "+
			"i16, f32 and f64 frames, plane decodes, bytes in and out, streams:\n got %v\nwant %v", got, want)
	}
	if c.budget == "uncached" {
		if g.Cache != nil {
			t.Errorf("budget=none geometry has a store: %+v", g.Cache)
		}
		return
	}
	depth := servedSpec().FocalDepth
	resident := map[string]int{"full": depth * c.nTx, "half": depth * c.nTx / 2, "7": 7}[c.budget]
	if cs := g.Cache; cs == nil || cs.ResidentBlocks != resident || cs.Hits != (n-1)*int64(resident) ||
		cs.Hits+cs.Misses != n*int64(depth*c.nTx) {
		t.Fatalf("store %+v: want %d resident blocks, each hit by the %d warm frames, and every other request a miss",
			cs, resident, n-1)
	}
	sched.mu.Lock()
	store := sched.geoms[g.Fingerprint].cache.Shared()
	sched.mu.Unlock()
	view := store.Attach()
	defer view.Detach()
	for tx := 0; tx < c.nTx; tx++ {
		for id := 0; id < depth; id++ {
			if got, want := view.Nappe16T(tx, id) != nil, id*c.nTx+tx < resident; got != want {
				t.Errorf("transmit %d nappe %d resident = %v, want %v", tx, id, got, want)
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
	replies := map[string][]byte{}
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
		replies[prec] = raw
	}
	if !bytes.Equal(replies["i16"], replies["float64"]) {
		t.Fatal("the precision=i16 volume differs from the precision=float64 one")
	}
	if bytes.Count(replies["float64"], []byte{0}) == len(replies["float64"]) {
		t.Error("volume is all zero: the comparison proves nothing")
	}
	if ws := sched.Stats().Wire; ws.PlaneDecodesI16 != 1 {
		t.Errorf("plane_decodes_i16 = %d, want 1 (the i16 session's body took the plane form)", ws.PlaneDecodesI16)
	}
}
