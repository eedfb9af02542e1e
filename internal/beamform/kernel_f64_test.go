// Property tests for the float64 golden kernel: the native (amd64) body
// must be BITWISE equal to accumulateNappe16Ref. Float addition is not
// associative, so the identity rests on the native body keeping each
// voxel's own sequence — active elements in activeIdx order, the product
// rounded before the add — and only interleaving different voxels. The
// generators here make every departure from that visible: samples span
// thirty binades with random mantissas (a swapped pair of elements or a
// fused multiply-add changes low bits), every row sits inside one backing
// array of non-zero samples (an out-of-window read that is not replaced by
// the zero sample returns a neighbour's data), and the voxel counts cover
// every remainder of the eight-wide group. Under -tags purego the native
// body IS the reference and the identity holds trivially.
package beamform

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// TestF64KernelBody logs which body accumulateNappe16 runs on this build
// and host; CI greps the line beside the i16 kernel's.
func TestF64KernelBody(t *testing.T) {
	body := f64KernelBody()
	if body != "avx512" && body != "sse2" && body != "ref" {
		t.Fatalf("unknown f64 kernel body %q", body)
	}
	t.Logf("f64 accumulate body: %s", body)
}

// f64KernelHarness is one synthetic kernel-call setup: an engine over an
// nx×ny aperture and an nth×nphi×2 volume, one echo row per element cut
// from a shared backing array, and a delay block.
type f64KernelHarness struct {
	eng     *Engine
	samples []float64 // backing array of every row, padded on both sides
	bufs    []rf.EchoBuffer
	blk     delay.Block16
	win     int
	rng     uint64
}

func newF64Harness(nx, ny, nth, nphi int, window xdcr.Window) *f64KernelHarness {
	cfg := Config{
		Vol:    scan.NewVolume(geom.Radians(30), geom.Radians(8), 0.02, nth, nphi, 2),
		Arr:    xdcr.NewArray(nx, ny, 0.385e-3/2),
		Conv:   conv,
		Window: window,
	}
	eng := New(cfg)
	nE := len(eng.apod)
	return &f64KernelHarness{
		eng:  eng,
		bufs: make([]rf.EchoBuffer, nE),
		blk:  make(delay.Block16, nth*nphi*nE),
		rng:  0xf64<<32 | uint64(nE*131+nth*17+nphi),
	}
}

func (h *f64KernelHarness) next() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

// sample draws a finite non-zero float64 with a random mantissa and sign
// and an exponent within ±15 of 1: sums of them round at every step.
func (h *f64KernelHarness) sample() float64 {
	r := h.next()
	return math.Float64frombits(r&(1<<63|1<<52-1) | (1023-15+(r>>52)%31)<<52)
}

// fillRows lays the rows out in one array of random samples and gives
// element d the window lens(d) (at most win), so a read past a row's end
// or before its start lands on live, non-zero data. One sample in sixteen
// is a signed zero. Zero-weight elements — the ones the kernel must skip,
// not multiply — get NaN and ±Inf rows.
func (h *f64KernelHarness) fillRows(win int, lens func(d int) int) {
	nE := len(h.bufs)
	h.win = win
	h.samples = make([]float64, (nE+2)*win)
	for i := range h.samples {
		if h.samples[i] = h.sample(); h.next()%16 == 0 {
			h.samples[i] = math.Copysign(0, h.samples[i])
		}
	}
	for d := range h.bufs {
		row := h.samples[(d+1)*win:][:lens(d):lens(d)]
		if h.eng.apod[d] == 0 {
			for i := range row {
				row[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
			}
		}
		h.bufs[d] = rf.EchoBuffer{Samples: row}
	}
}

// fillDelays mixes in-window indices with both window edges, −1 and the
// int16 extremes. A window longer than the int16 range has its edges at
// 32766 and 32767.
func (h *f64KernelHarness) fillDelays() {
	hi := min(h.win, math.MaxInt16)
	edge := []int16{-32768, -32767, -1, 0, int16(hi - 1), int16(hi), 32767}
	for i := range h.blk {
		r := h.next()
		if r%3 == 0 {
			h.blk[i] = edge[(r>>8)%uint64(len(edge))]
		} else {
			h.blk[i] = int16((r >> 8) % uint64(hi))
		}
	}
}

// run drives every native body this host offers (f64HostBodies: the
// AVX-512 tile body, the SSE2 body) and the reference over both depth
// slices, store mode on volumes pre-filled with different garbage and then
// add mode on top, and compares bit patterns after each mode: a store-only
// error (−0 for +0, one ulp) can round away in the add.
func (h *f64KernelHarness) run(t *testing.T, name string) {
	t.Helper()
	vol := h.eng.Cfg.Vol
	ref := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
	for i := range ref.Data {
		ref.Data[i] = -1e300 // store mode must overwrite
	}
	var bodies []f64Body
	var natives []*Volume
	for _, body := range f64HostBodies(h.eng) {
		if body.name == "ref" {
			continue
		}
		native := &Volume{Vol: vol, Data: make([]float64, vol.Points())}
		for i := range native.Data {
			native.Data[i] = 1e300
		}
		bodies, natives = append(bodies, body), append(natives, native)
	}
	for _, add := range []bool{false, true} {
		for id := 0; id < vol.Depth.N; id++ {
			h.eng.accumulateNappe16Ref(h.blk, h.bufs, id, ref, add)
		}
		for b, body := range bodies {
			native := natives[b]
			for id := 0; id < vol.Depth.N; id++ {
				body.run(h.blk, h.bufs, id, native, add)
			}
			for i := range ref.Data {
				if math.Float64bits(native.Data[i]) != math.Float64bits(ref.Data[i]) {
					t.Fatalf("%s %s %dx%d elements, %d voxels, win %d (add=%t): native %v (%#x) != ref %v (%#x) at voxel %d",
						body.name, name, h.eng.Cfg.Arr.NX, h.eng.Cfg.Arr.NY, vol.Theta.N*vol.Phi.N, h.win, add,
						native.Data[i], math.Float64bits(native.Data[i]), ref.Data[i], math.Float64bits(ref.Data[i]), i)
				}
			}
		}
	}
}

// f64Apertures: single elements, 1×N and N×1 lines, odd rectangles and the
// two served apertures. Under Hann the border elements weigh zero and are
// compacted out of activeIdx (a 1×N or N×1 Hann line keeps no element). For
// the tile body's 16-element groups: up to 15 elements are one short group,
// 17 and 30 a whole group and a short one, 144 and 256 whole groups only.
var f64Apertures = []struct{ nx, ny int }{{1, 1}, {1, 7}, {7, 1}, {3, 3}, {5, 3}, {3, 4}, {17, 1}, {6, 5}, {12, 12}, {16, 16}}

// TestF64KernelNativeMatchesRef is the bit-identity property over every
// aperture shape, Rect and Hann, voxel counts 1…17 (every remainder of the
// SSE2 body's eight-voxel group, one whole tile of the tile body or a
// partial one, with and without a whole one before it), and uniform, ragged
// and empty windows. Windows of 1 and 9 samples put random delays mostly in
// the tile body's window, narrow and wide; 700 puts them mostly in its
// gather.
func TestF64KernelNativeMatchesRef(t *testing.T) {
	for _, window := range []xdcr.Window{xdcr.Rect, xdcr.Hann} {
		for _, a := range f64Apertures {
			for nVox := 1; nVox <= 17; nVox++ {
				nth, nphi := nVox, 1
				if nVox%3 == 0 {
					nth, nphi = nVox/3, 3
				}
				h := newF64Harness(a.nx, a.ny, nth, nphi, window)
				for _, win := range []int{1, 9, 700} {
					h.fillRows(win, func(int) int { return win })
					h.fillDelays()
					h.run(t, "uniform")
					h.fillRows(win, func(d int) int { return (d * 5) % (win + 1) })
					h.run(t, "ragged")
				}
				h.fillRows(9, func(int) int { return 0 })
				h.run(t, "empty")
			}
		}
	}
}

// TestF64KernelServedNappe runs the served shape — 33×33 = 1089 voxels
// (136 groups and one tail voxel), 16×16 Hann, the reduced spec's 8512
// sample window — plus the edge delays as whole blocks: every voxel of
// every element at −1, 0, win−1, win and ±32767.
func TestF64KernelServedNappe(t *testing.T) {
	const win = 8512
	h := newF64Harness(16, 16, 33, 33, xdcr.Hann)
	h.fillRows(win, func(int) int { return win })
	h.fillDelays()
	h.run(t, "served")
	h.fillRows(win, func(d int) int { return win - d%3 })
	h.run(t, "served-ragged")
	for _, d := range []int16{-32767, -1, 0, win - 1, win, 32767} {
		for i := range h.blk {
			h.blk[i] = d
		}
		h.run(t, "constant-delay")
	}
}

// TestF64KernelLongRows runs rows longer than 32768 samples — the windows
// beyond delay.MaxEchoWindow a session sends through this kernel — where
// every non-negative int16 delay, 32767 included, is inside the row: ragged
// lengths around 1<<15, random and constant delays at the int16 edges.
func TestF64KernelLongRows(t *testing.T) {
	const win = 1<<15 + 1000
	h := newF64Harness(5, 3, 17, 1, xdcr.Rect)
	h.fillRows(win, func(int) int { return win })
	h.fillDelays()
	h.run(t, "long")
	h.fillRows(win, func(d int) int { return []int{win, 1 << 15, 1<<15 + 1, 1<<15 - 1, 40}[d%5] })
	h.run(t, "long-ragged")
	for _, d := range []int16{-32768, -1, 0, 32751, 32766, 32767} {
		for i := range h.blk {
			h.blk[i] = d
		}
		h.run(t, "long-constant-delay")
	}
}

// TestF64KernelSkipsZeroWeightElements pins the compaction both bodies
// share: a zero-weight element's NaN and ±Inf samples must never reach a
// sum (0·NaN is NaN, so multiplying instead of skipping would show).
func TestF64KernelSkipsZeroWeightElements(t *testing.T) {
	h := newF64Harness(5, 5, 11, 1, xdcr.Hann)
	if len(h.eng.activeIdx) != 9 {
		t.Fatalf("5×5 Hann keeps %d elements, want the inner 9", len(h.eng.activeIdx))
	}
	h.fillRows(9, func(int) int { return 9 })
	h.fillDelays()
	h.run(t, "nan-border")
	out := &Volume{Vol: h.eng.Cfg.Vol, Data: make([]float64, h.eng.Cfg.Vol.Points())}
	h.eng.accumulateNappe16(h.blk, h.bufs, 0, out, false)
	for i, v := range out.Data[:11] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("voxel %d = %v: a zero-weight element's sample entered the sum", i, v)
		}
	}
}

// TestF64KernelThroughSession holds a whole Session to the reference.
func TestF64KernelThroughSession(t *testing.T) { f64SessionMatchesRef(t) }

// f64SessionMatchesRef runs a 3-transmit compound batch of two frames (store
// on transmit 0, add on 1 and 2; 27 voxels a nappe — two tiles, the second
// partial, or three eight-voxel groups and a tail) through a Session on the
// body the probe currently selects, and requires it to equal, bit for bit,
// the same nappes pushed through accumulateNappe16Ref by hand.
func f64SessionMatchesRef(t *testing.T) {
	t.Helper()
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 20)
	txs := delay.SteeredTransmits(3, 0.004, 0.004)
	provs, txBufs := compoundSetup(t, cfg, txs, target)
	eng := New(cfg)
	sess, err := eng.NewSessionProviders(provs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got := []*Volume{sess.NewVolume(), sess.NewVolume()}
	if err := sess.BeamformBatch(got, [][][]rf.EchoBuffer{txBufs, txBufs}); err != nil {
		t.Fatal(err)
	}

	layout := delay.Layout{NTheta: cfg.Vol.Theta.N, NPhi: cfg.Vol.Phi.N, NX: cfg.Arr.NX, NY: cfg.Arr.NY}
	want := &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}
	blk := make(delay.Block16, layout.BlockLen())
	for id := 0; id < cfg.Vol.Depth.N; id++ {
		for ti, p := range provs {
			delay.AsBlock(p, layout).FillNappe16(id, blk)
			eng.accumulateNappe16Ref(blk, txBufs[ti], id, want, ti > 0)
		}
	}
	peak := 0.0
	for i, w := range want.Data {
		for k := range got {
			if math.Float64bits(got[k].Data[i]) != math.Float64bits(w) {
				t.Fatalf("frame %d voxel %d: session %v != reference %v", k, i, got[k].Data[i], w)
			}
		}
		peak = max(peak, math.Abs(w))
	}
	if peak == 0 {
		t.Fatal("compound volume is all zero: the comparison proved nothing")
	}
}
