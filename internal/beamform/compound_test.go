package beamform

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
)

// compoundSetup builds a small steered-transmit scene: per-transmit
// providers derived from the exact law and per-transmit echo sets of one
// point phantom.
func compoundSetup(t *testing.T, cfg Config, txs []delay.Transmit, target geom.Vec3) ([]delay.Provider, [][]rf.EchoBuffer) {
	t.Helper()
	provs, err := delay.ForTransmits(exactProvider(cfg), txs)
	if err != nil {
		t.Fatal(err)
	}
	txBufs := make([][]rf.EchoBuffer, len(txs))
	for i, tx := range txs {
		bufs, err := rf.Synthesize(rf.Config{
			Arr: cfg.Arr, Conv: cfg.Conv, Pulse: rf.NewPulse(4e6, 4e6),
			Origin: tx.Origin, BufSamples: 1400,
		}, rf.PointPhantom(target))
		if err != nil {
			t.Fatal(err)
		}
		txBufs[i] = bufs
	}
	return provs, txBufs
}

// TestCompoundMatchesSequentialSum is the compounding correctness
// contract: an N-transmit compound frame must equal beamforming each
// transmit separately and summing the volumes in transmit order —
// bitwise at every precision, because the compound kernels accumulate
// per voxel in exactly that order.
func TestCompoundMatchesSequentialSum(t *testing.T) {
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), geom.Radians(10), 0.03, 9, 3, 30)
	txs := delay.SteeredTransmits(3, 0.004, 0.004)
	var golden *Volume
	for _, prec := range []Precision{PrecisionFloat64, PrecisionInt16} {
		c := cfg
		c.Precision = prec
		eng := New(c)
		provs, txBufs := compoundSetup(t, c, txs, target)

		// The explicit per-transmit sum, in transmit order.
		ref := &Volume{Vol: c.Vol, Data: make([]float64, c.Vol.Points())}
		for ti, p := range provs {
			sess, err := eng.NewSession(p)
			if err != nil {
				t.Fatal(err)
			}
			vol, err := sess.Beamform(txBufs[ti])
			sess.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vol.Data {
				ref.Data[i] += v
			}
		}

		sess, err := eng.NewSessionProviders(provs)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Transmits() != len(txs) {
			t.Fatalf("Transmits = %d, want %d", sess.Transmits(), len(txs))
		}
		for frame := 0; frame < 2; frame++ { // repeated compound frames stay identical
			vol, err := sess.BeamformCompound(txBufs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref.Data {
				if ref.Data[i] != vol.Data[i] {
					t.Fatalf("%v frame %d: compound differs from sequential sum at %d: %v vs %v",
						prec, frame, i, vol.Data[i], ref.Data[i])
				}
			}
		}
		sess.Close()

		// Cross-precision fidelity: i16 sits above the PSNR gate against
		// the float64 golden compound.
		if prec == PrecisionFloat64 {
			golden = ref
			continue
		}
		psnr, err := PeakSignalRatio(golden, ref)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 60 {
			t.Errorf("%v compound PSNR = %.1f dB, want ≥ 60", prec, psnr)
		}
	}
}

// TestCompoundSingleTransmitIsBeamformInto pins the degenerate case: a
// one-transmit compound frame is exactly the plain session frame.
func TestCompoundSingleTransmitIsBeamformInto(t *testing.T) {
	cfg, bufs, _ := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 20)
	eng := New(cfg)
	sess, err := eng.NewSession(exactProvider(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	single, err := sess.Beamform(bufs)
	if err != nil {
		t.Fatal(err)
	}
	compound, err := sess.BeamformCompound([][]rf.EchoBuffer{bufs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.Data {
		if single.Data[i] != compound.Data[i] {
			t.Fatalf("1-transmit compound differs at %d", i)
		}
	}
}

// TestCompoundShapeErrors pins the session's transmit-arity contract.
func TestCompoundShapeErrors(t *testing.T) {
	cfg, bufs, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 10)
	eng := New(cfg)
	txs := delay.SteeredTransmits(2, 0.004, 0.004)
	provs, txBufs := compoundSetup(t, cfg, txs, target)
	sess, err := eng.NewSessionProviders(provs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.BeamformCompound(txBufs[:1]); err == nil {
		t.Error("echo-set count below the transmit count must error")
	}
	if err := sess.BeamformInto(&Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())}, bufs); err == nil {
		t.Error("BeamformInto on a compound session must error")
	}
	if _, err := eng.NewSessionProviders(nil); err == nil {
		t.Error("empty provider list must error")
	}
	if _, err := eng.NewSessionProviders([]delay.Provider{nil}); err == nil {
		t.Error("nil provider entry must error")
	}
}

// TestCompoundStream drives BeamformCompoundInto through several frames
// with a reused output volume and checks frames stay identical and finite.
func TestCompoundStream(t *testing.T) {
	cfg, _, target := psfSetup(t)
	cfg.Vol = scan.NewVolume(geom.Radians(40), 0, 0.03, 7, 1, 15)
	eng := New(cfg)
	txs := delay.SteeredTransmits(2, 0.004, 0.004)
	provs, txBufs := compoundSetup(t, cfg, txs, target)
	sess, err := eng.NewSessionProviders(provs)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var first []float64
	v := sess.NewVolume()
	for frame := 0; frame < 3; frame++ {
		if err := sess.BeamformCompoundInto(v, txBufs); err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if first == nil {
			first = append([]float64(nil), v.Data...)
			continue
		}
		for i := range first {
			if v.Data[i] != first[i] || math.IsNaN(v.Data[i]) {
				t.Fatalf("frame %d drifts at %d", frame, i)
			}
		}
	}
	if sess.Frames() != 3 {
		t.Errorf("Frames = %d, want 3", sess.Frames())
	}
}
