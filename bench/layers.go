package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/url"
	"runtime"
	"time"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/cluster"
	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/delaycache"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/serve"
	"ultrabeam/internal/wire"
	"ultrabeam/internal/xdcr"
	"ultrabeam/pkg/client"
)

// This file is the only one that calls single layers directly. Each
// number is a median over timed calls of a module's public entry point, on
// the inputs the workload itself sent — taken from outside, after the
// served windows, with the server gone so nothing contends.

// unitLawMdelays is one §IV-B TABLEFREE unit: 167 Mdelays/s (the paper's
// 1.67 Tdelays/s is ten thousand of them).
const unitLawMdelays = 167.0

// medianMs runs fn n times and returns the median call's duration in ms.
func medianMs(n int, fn func() error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times), nil
}

// payload is one compound decoded the way serve.Server decodes it: guarded
// int16 planes when an i16 frame meets an i16 session (the near-memcpy
// ingest), float64 echo buffers otherwise.
type payload struct {
	win    int
	planes [][]int16
	scales []float32
	tx     [][]rf.EchoBuffer
}

func decodeBody(req serve.SessionRequest, body []byte, transmits int) (*payload, error) {
	r := bytes.NewReader(body)
	p := &payload{}
	for t := 0; t < transmits; t++ {
		h, err := wire.ReadHeader(r)
		if err != nil {
			return nil, err
		}
		p.win = h.Window
		if req.Config.Precision == beamform.PrecisionInt16 && h.Encoding == wire.EncodingI16 {
			plane := make([]int16, h.Elements*(h.Window+1))
			if err := wire.DecodePlaneI16(r, h, plane, h.Window+1); err != nil {
				return nil, err
			}
			p.planes, p.scales = append(p.planes, plane), append(p.scales, h.Scale)
			continue
		}
		samples := make([]float64, h.Elements*h.Window)
		if err := wire.DecodeF64(r, h, samples); err != nil {
			return nil, err
		}
		bufs := make([]rf.EchoBuffer, h.Elements)
		for d := range bufs {
			bufs[d] = rf.EchoBuffer{Samples: samples[d*h.Window : (d+1)*h.Window]}
		}
		p.tx = append(p.tx, bufs)
	}
	return p, nil
}

// submit is the in-process form of one served volume: reserve the slot,
// deliver the decoded compound, wait for its batch.
func submit(s *serve.Scheduler, req serve.SessionRequest, p *payload) (*beamform.Volume, error) {
	pend, err := s.Begin(req)
	if err != nil {
		return nil, err
	}
	if p.planes != nil {
		pend.CompletePlanesI16(p.win, p.planes, p.scales)
	} else {
		pend.CompleteBuffers(p.tx)
	}
	return pend.Wait(context.Background())
}

// beamformDirect is the same compound as a batch of one on a bare session.
func beamformDirect(sess *beamform.Session, dst *beamform.Volume, p *payload) error {
	if p.planes != nil {
		return sess.BeamformBatchPlanesI16([]*beamform.Volume{dst}, p.win, [][][]int16{p.planes}, [][]float32{p.scales})
	}
	return sess.BeamformBatch([]*beamform.Volume{dst}, [][][]rf.EchoBuffer{p.tx})
}

// timeSession builds a session for cfg (warming its cache when it has one),
// and times n direct batches of one.
func timeSession(req serve.SessionRequest, cfg core.SessionConfig, p *payload, n int) (float64, error) {
	sess, cache, err := req.Spec.NewSessionConfig(cfg, req.Arch.NewProvider(req.Spec))
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	if cache != nil {
		defer cache.Detach()
		cache.Warm()
	}
	dst := sess.NewVolume()
	if err := beamformDirect(sess, dst, p); err != nil { // sizes the session's planes
		return 0, err
	}
	return medianMs(n, func() error { return beamformDirect(sess, dst, p) })
}

// spread returns up to n nappe ids evenly spaced over the depth axis — all
// of them at the default counts.
func spread(depths, n int) []int {
	n = min(n, depths)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * depths / n
	}
	return ids
}

// fillRate times FillNappe16 over ids, one goroutine, and returns
// Mdelays/s at the median call.
func fillRate(bp delay.BlockProvider16, ids []int) float64 {
	block := make(delay.Block16, bp.Layout().BlockLen())
	times := make([]float64, len(ids))
	for i, id := range ids {
		start := time.Now()
		bp.FillNappe16(id, block)
		times[i] = ms(time.Since(start))
	}
	return float64(len(block)) / (median(times) / 1e3) / 1e6
}

// layerPass fills m with every per-layer metric that does not come from a
// served window, and records the staged replay's spans on tr.
func layerPass(in *inputs, cfg config, rec *recorder, tr *tracer, m map[string]float64) error {
	req := in.opts.Request
	spec := req.Spec
	nTx := in.transmits()
	depths := spec.FocalDepth
	few := max(cfg.calls/16, 1) // repetitions of the calls that take a large part of a second

	// machine
	m["machine.memcpy_gbps"] = memcpyGBps()
	fmt.Printf("  memcpy          %d MiB copy, last-level cache %s: %.2f GB/s\n", memcpyBytes>>20, llc(), m["machine.memcpy_gbps"])

	// delay generators, on this workload's grid whatever its own architecture
	tf := serve.ArchTableFree.NewProvider(spec).(delay.BlockProvider16)
	m["tablefree.fill16_mdelays_per_s"] = fillRate(tf, spread(depths, 4*cfg.calls))
	m["tablefree.fill16_over_unit_law"] = m["tablefree.fill16_mdelays_per_s"] / unitLawMdelays
	m["tablesteer.build_ms"], _ = medianMs(few, func() error {
		for t := 0; t < 4; t++ { // one folded reference table per transmit of a 4-compound
			spec.NewTableSteer(18)
		}
		return nil
	})
	m["tablesteer.fill16_mdelays_per_s"] = fillRate(serve.ArchTableSteer.NewProvider(spec).(delay.BlockProvider16), spread(depths, 4*cfg.calls))
	m["delay.exact_fill16_mdelays_per_s"] = fillRate(spec.NewExact(), spread(depths, cfg.calls))

	// delay cache, configured as the workload configures it
	m["delaycache.warm_ms"], m["delaycache.resident_mb"], m["delaycache.hit_lookup_ns"] = 0, 0, 0
	if req.Config.Cached {
		var store *delaycache.Shared
		var warm []float64
		for rep := 0; rep < few; rep++ {
			var err error
			if store, err = spec.NewSharedCache(req.Config, req.Arch.NewProvider(spec)); err != nil {
				return err
			}
			start := time.Now()
			store.Warm()
			warm = append(warm, ms(time.Since(start)))
		}
		m["delaycache.warm_ms"] = median(warm)
		m["delaycache.resident_mb"] = float64(store.Stats().BytesResident) / 1e6
		view := store.Attach()
		resident := store.PlanQuota()[0] // transmit 0's resident prefix
		const lookups = 1 << 16
		start := time.Now()
		for i := 0; i < lookups; i++ {
			if view.Nappe16T(0, i%resident) == nil {
				return fmt.Errorf("delaycache: resident block %d missed", i%resident)
			}
		}
		m["delaycache.hit_lookup_ns"] = float64(time.Since(start)) / lookups
		view.Detach()
	}

	// wire and rf, on frame 0 / transmit 0
	bufs := in.rf0[0]
	elems, win := len(bufs), in.win
	flat := flatten(bufs)
	for _, e := range []struct {
		enc    wire.Encoding
		metric string
	}{{wire.EncodingI16, "wire.decode_i16_ms"}, {wire.EncodingF64, "wire.decode_f64_ms"}} {
		fr, err := wire.NewFrame(e.enc, elems, win, 0, 1, flat)
		if err != nil {
			return err
		}
		var enc bytes.Buffer
		if err := wire.WriteFrame(&enc, fr, 0); err != nil {
			return err
		}
		m[e.metric], err = medianMs(cfg.calls, func() error {
			r := bytes.NewReader(enc.Bytes())
			h, err := wire.ReadHeader(r)
			if err != nil {
				return err
			}
			if e.enc == wire.EncodingI16 {
				return wire.DecodePlaneI16(r, h, make([]int16, elems*(win+1)), win+1)
			}
			return wire.DecodeF64(r, h, make([]float64, elems*win))
		})
		if err != nil {
			return err
		}
	}
	var err error
	if m["rf.plane_i16_ms"], err = medianMs(cfg.calls, func() error { _, _, err := rf.PlaneI16(bufs, win); return err }); err != nil {
		return err
	}
	if m["rf.plane32_ms"], err = medianMs(cfg.calls, func() error { _, err := rf.Plane32(bufs, win); return err }); err != nil {
		return err
	}
	if m["client.encode_body_ms"], err = medianMs(2*few, func() error { _, _, err := client.EncodeBody("i16", elems, win, flat); return err }); err != nil {
		return err
	}

	// the workload's own body, decoded as the server decodes it
	var p *payload
	decodeMs, err := medianMs(cfg.calls, func() error {
		var err error
		p, err = decodeBody(req, in.bodies[0], nTx)
		return err
	})
	if err != nil {
		return err
	}
	m["wire.request_mb_per_volume"] = float64(len(in.bodies[0])) / 1e6
	m["wire.decode_gbps"] = float64(len(in.bodies[0])) / (decodeMs / 1e3) / 1e9

	// staged replay: one goroutine walks volumes through the served path's
	// layers itself, on a fresh in-process scheduler
	sched := serve.NewScheduler(serve.SchedulerConfig{})
	defer sched.Close()
	if _, err := submit(sched, req, p); err != nil { // cold build, untimed
		return err
	}
	var encoded bytes.Buffer
	for v := 0; v < cfg.replay; v++ {
		f := v % rotation
		t0 := time.Now()
		pv, err := decodeBody(req, in.bodies[f], nTx)
		if err != nil {
			return err
		}
		t1 := time.Now()
		vol, err := submit(sched, req, pv)
		if err != nil {
			return err
		}
		t2 := time.Now()
		encoded.Reset()
		if err := wire.WriteVolume(&encoded, in.opts.Resp, vol.Vol.Theta.N, vol.Vol.Phi.N, vol.Vol.Depth.N, vol.Data); err != nil {
			return err
		}
		t3 := time.Now()
		m["wire.reply_mb_per_volume"] = float64(encoded.Len()) / 1e6
		back, err := wire.ReadVolume(&encoded, 0)
		if err != nil {
			return err
		}
		t4 := time.Now()
		id := tr.root("replay", v, t0, t4)
		tr.child(id, "wire.decode", t0, t1)
		tr.child(id, "serve.submit", t1, t2)
		tr.child(id, "wire.write_volume", t2, t3)
		tr.child(id, "wire.read_volume", t3, t4)
		rec.check(reply{seq: f, data: back.Data}) // held to frame f's golden like a served reply
	}

	// the kernel layer alone: a bare session, batches of one
	full := req.Config
	full.Cached, full.CacheBudget = true, -1
	if m["beamform.accumulate_ms"], err = timeSession(req, full, p, cfg.calls); err != nil {
		return err
	}
	m["beamform.fill_accumulate_ms"] = m["beamform.accumulate_ms"] // a fully resident workload is already that session
	if !req.Config.Cached || req.Config.CacheBudget >= 0 {
		if m["beamform.fill_accumulate_ms"], err = timeSession(req, req.Config, p, cfg.calls); err != nil {
			return err
		}
	}
	procs := runtime.GOMAXPROCS(1) // sessions size their worker pool when built
	m["beamform.accumulate_w1_ms"], err = timeSession(req, full, p, cfg.calls/2)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	m["beamform.scaling_eff"] = m["beamform.accumulate_w1_ms"] / (float64(procs) * m["beamform.accumulate_ms"])
	m["beamform.kernel_gbps"] = kernelBytes(req, nTx) / (m["beamform.accumulate_ms"] / 1e3) / 1e9
	m["beamform.kernel_over_memcpy"] = m["beamform.kernel_gbps"] / m["machine.memcpy_gbps"]

	// request grammar
	q, err := url.ParseQuery(in.w.query)
	if err != nil {
		return err
	}
	var fp string
	parseMs, err := medianMs(1000, func() error {
		o, err := serve.ParseOptions(q, nil)
		fp = o.Fingerprint()
		return err
	})
	if err != nil {
		return err
	}
	m["serve.parse_fingerprint_us"] = parseMs * 1e3

	// cluster primitives: no routed workload fits two cores, so these are
	// layer-only baselines
	ring := cluster.NewRing([]string{"node-a", "node-b", "node-c"}, 0)
	const owners = 1 << 14
	start := time.Now()
	for i := 0; i < owners; i++ {
		if ring.Owner(fp) == "" {
			return fmt.Errorf("cluster: empty ring")
		}
	}
	m["cluster.ring_owner_ns"] = float64(time.Since(start)) / owners
	frame := in.bodies[0][:len(in.bodies[0])/nTx] // transmit 0's frame
	relayMs, err := medianMs(cfg.calls, func() error {
		r := bytes.NewReader(frame)
		h, err := wire.ReadHeader(r)
		if err != nil {
			return err
		}
		return wire.CopyFrame(io.Discard, r, h)
	})
	if err != nil {
		return err
	}
	m["cluster.relay_frame_gbps"] = float64(len(frame)) / (relayMs / 1e3) / 1e9
	return nil
}

// kernelBytes is the bytes one accumulate pass touches, computed (not
// measured): per voxel and transmit, one 2-byte delay word and one echo
// sample for every element the apodization keeps, plus the float64 output.
func kernelBytes(req serve.SessionRequest, transmits int) float64 {
	active := 0
	for _, w := range xdcr.Apodization2D(req.Config.Window, req.Spec.ElemX, req.Spec.ElemY) {
		if w != 0 {
			active++
		}
	}
	sample := 8.0 // the golden kernel gathers float64 echoes
	if req.Config.Precision == beamform.PrecisionInt16 {
		sample = 2
	}
	points := float64(req.Spec.Points())
	return points*float64(transmits)*float64(active)*(2+sample) + points*8
}
