package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"sync"

	"ultrabeam/internal/beamform"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/serve"
	"ultrabeam/internal/wire"
)

// workload is one traffic shape. The names and query strings are the
// benchmark's contract (BENCHMARK.json, README.md); the why strings say
// which layer each one is there to expose.
type workload struct {
	name  string
	why   string
	query string // the /v1 request grammar, also the stream hello
	http  bool   // POST /v1/beamform on keep-alive connections; otherwise one UBF1 cine stream
	conns int    // client connections
	depth int    // requests in flight per connection
	// bitIdentical holds replies to the scalar golden bit for bit (the
	// float64 contract) instead of the 60 dB PSNR floor.
	bitIdentical bool
}

const smallGrid = "spec=reduced&elemx=12&elemy=12&ftheta=25&fphi=25&fdepth=80"

var workloads = []workload{
	{
		name:  "cine_i16_resident",
		why:   "steady-state hot path: delays fully resident, so the fixed-point accumulate kernel, dispatch and reply encode set the rate; a delay-generator change must not show",
		query: "spec=reduced&arch=tablefree&precision=i16&fmt=i16&resp=f32",
		conns: 1, depth: 2,
	},
	{
		name:  "post_f64_golden",
		why:   "bit-identical float64 path over HTTP: 17.4 MB bodies, f64 decode + convert stage, two clients contending for one geometry so queue wait and batch fusion are non-zero",
		query: "spec=reduced&arch=tablefree&precision=float64&fmt=f64&resp=f64",
		http:  true, conns: 2, depth: 1, bitIdentical: true,
	},
	{
		name:  "tablefree_uncached",
		why:   "the paper's section IV regime: budget=none regenerates all 7.2 M delays per volume, so the tablefree fill dominates and the cache is bypassed",
		query: smallGrid + "&arch=tablefree&budget=none&precision=i16&fmt=i16&resp=f32",
		conns: 1, depth: 1,
	},
	{
		name:  "compound4_steer_half",
		why:   "section V table-as-cache: 4-transmit compounding with half of the 57.6 MB steer table resident, mixing cache hits, tablesteer refills, add-mode kernel and 4x ingest",
		query: smallGrid + "&transmits=4&arch=tablesteer&budget=28800000&precision=i16&fmt=i16&resp=f32",
		conns: 1, depth: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rotation is how many distinct frames a workload cycles through, so the
// server never sees one frame twice in a row and every reply is checked
// against the golden of the frame it answers.
const rotation = 4

// inputs is everything a workload sends and expects, made from the seed
// alone: the request bodies as they go on the wire, and the scalar golden
// volume of each.
type inputs struct {
	w      workload
	opts   serve.RequestOptions
	win    int
	bodies [rotation][]byte
	golden [rotation]*beamform.Volume
	// rf0 is frame 0's echo set per transmit, kept for the per-layer pass
	// (re-encoding, the buffer-fed convert stage); the other frames' float64
	// RF is dropped once encoded so it does not sit in live_heap_mb.
	rf0 [][]rf.EchoBuffer
}

func (in *inputs) transmits() int {
	if n := len(in.opts.Request.Config.Transmits); n > 0 {
		return n
	}
	return 1
}

// makeInputs synthesizes rotation speckle frames (one echo set per
// transmit), encodes them in the workload's wire format and beamforms the
// scalar golden of each on the provider the server itself would build.
func makeInputs(w workload, seed int64, frames int) (*inputs, error) {
	q, err := url.ParseQuery(w.query)
	if err != nil {
		return nil, err
	}
	opts, err := serve.ParseOptions(q, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	enc, err := wire.ParseEncoding(opts.BodyFormat)
	if err != nil {
		return nil, err
	}
	req := opts.Request
	spec := req.Spec
	in := &inputs{w: w, opts: opts, win: spec.EchoBufferSamples()}

	txs := req.Config.Transmits
	if len(txs) == 0 {
		txs = []delay.Transmit{{}}
	}
	provs, err := delay.ForTransmits(req.Arch.NewProvider(spec), req.Config.Transmits)
	if err != nil {
		return nil, err
	}
	eng := spec.NewBeamformer(req.Config.Window, scan.NappeOrder)
	depth := spec.Depth()

	// frame synthesizes, encodes and beamforms frame f.
	frame := func(f int) error {
		ph := rf.SpecklePhantom(96,
			geom.Vec3{X: -0.03, Y: -0.03, Z: 0.15 * depth},
			geom.Vec3{X: 0.03, Y: 0.03, Z: 0.9 * depth}, seed*rotation+int64(f))
		var body bytes.Buffer
		var sum *beamform.Volume
		for t, tx := range txs {
			bufs, err := rf.Synthesize(rf.Config{
				Arr: spec.Array(), Conv: spec.Converter(), Pulse: rf.NewPulse(spec.Fc, spec.B),
				Origin: tx.Origin, BufSamples: in.win,
			}, ph)
			if err != nil {
				return err
			}
			fr, err := wire.NewFrame(enc, len(bufs), in.win, t, len(txs), flatten(bufs))
			if err != nil {
				return err
			}
			if err := wire.WriteFrame(&body, fr, 0); err != nil {
				return err
			}
			vol, err := eng.BeamformScalar(provs[t], bufs)
			if err != nil {
				return err
			}
			if sum == nil {
				sum = vol
			} else {
				for i, v := range vol.Data {
					sum.Data[i] += v
				}
			}
			if f == 0 {
				in.rf0 = append(in.rf0, bufs)
			}
		}
		in.bodies[f], in.golden[f] = body.Bytes(), sum
		return nil
	}
	// Frames are independent; two at a time fills both cores of the sizing
	// box without holding every frame's float64 RF at once.
	var wg sync.WaitGroup
	errs := make([]error, frames)
	sem := make(chan struct{}, 2)
	for f := 0; f < frames; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			sem <- struct{}{}
			errs[f] = frame(f)
			<-sem
		}(f)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// A short rotation (smoke) cycles the frames it has.
	for f := frames; f < rotation; f++ {
		in.bodies[f], in.golden[f] = in.bodies[f%frames], in.golden[f%frames]
	}
	return in, nil
}

// flatten lays an echo set out element-major, the order wire frames carry.
func flatten(bufs []rf.EchoBuffer) []float64 {
	win := len(bufs[0].Samples)
	out := make([]float64, len(bufs)*win)
	for d, b := range bufs {
		copy(out[d*win:], b.Samples)
	}
	return out
}
