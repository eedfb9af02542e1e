package tablefree

import (
	"math"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

var conv = delay.Converter{C: 1540, Fs: 32e6}

// smallConfig keeps sweeps fast while preserving the paper's angular span
// and depth range.
func smallConfig() Config {
	return Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 0.1925, 17, 17, 50),
		Arr:  xdcr.NewArray(16, 16, 0.385e-3/2),
		Conv: conv,
	}
}

func exactFor(cfg Config) *delay.Exact {
	return delay.NewExact(cfg.Vol, cfg.Arr, cfg.Origin, cfg.Conv)
}

func TestDefaultsApplied(t *testing.T) {
	p := New(smallConfig())
	if p.Cfg.Delta != DefaultDelta {
		t.Errorf("delta default = %v", p.Cfg.Delta)
	}
	if p.Cfg.Fixed.SlopeFrac == 0 {
		t.Error("fixed config default not applied")
	}
	if p.Name() != "tablefree" {
		t.Errorf("Name = %q", p.Name())
	}
	p.UseFixed = true
	if p.Name() != "tablefree-fixed" {
		t.Errorf("fixed Name = %q", p.Name())
	}
}

func TestSegmentCountAtPaperGeometry(t *testing.T) {
	// Full Table I geometry must need ~70 segments (§IV-B).
	cfg := Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 500*0.385e-3, 128, 128, 1000),
		Arr:  xdcr.NewArray(100, 100, 0.385e-3/2),
		Conv: conv,
	}
	p := New(cfg)
	if n := p.NumSegments(); n < 60 || n > 80 {
		t.Errorf("segments = %d, paper reports ~70", n)
	} else {
		t.Logf("segments = %d (paper: ~70)", n)
	}
}

// paperApertureConfig keeps the full 19.25 mm aperture and angular span of
// Table I (so transmit- and receive-leg approximation errors decorrelate as
// they do at paper scale) with a subsampled focal grid; accuracy tests
// stride the elements.
func paperApertureConfig() Config {
	return Config{
		Vol:  scan.NewVolume(geom.Radians(73), geom.Radians(73), 500*0.385e-3, 17, 17, 50),
		Arr:  xdcr.NewArray(100, 100, 0.385e-3/2),
		Conv: conv,
	}
}

func TestIdealAccuracyWithinTwoDelta(t *testing.T) {
	// Sum of two ±δ approximations: |error| ≤ 0.5 samples, mean ≈ 0.204
	// (§VI-A). Sampled sweep at paper aperture.
	cfg := paperApertureConfig()
	p := New(cfg)
	st := delay.Compare(p, exactFor(cfg), 9)
	if st.MaxAbs > 2*p.Cfg.Delta*(1+1e-9) {
		t.Errorf("max |err| = %v, theoretical cap %v", st.MaxAbs, 2*p.Cfg.Delta)
	}
	if st.MeanAbs < 0.12 || st.MeanAbs > 0.27 {
		t.Errorf("mean |err| = %v, expected in the ~0.2 band (paper 0.204)", st.MeanAbs)
	}
	t.Logf("ideal PWL: %v (paper: mean ≈0.204, max 0.5)", st.String())
}

func TestFixedAccuracyMatchesPaperBand(t *testing.T) {
	// §VI-A: fixed-point selection error mean ≈ 0.2489, max 2.
	cfg := paperApertureConfig()
	p := New(cfg)
	p.UseFixed = true
	st := delay.Compare(p, exactFor(cfg), 9)
	if st.MeanAbsIndex < 0.15 || st.MeanAbsIndex > 0.3 {
		t.Errorf("mean index error = %v, paper reports ≈0.2489", st.MeanAbsIndex)
	}
	if st.MaxAbsIndex > 2 {
		t.Errorf("max index error = %d, paper reports 2", st.MaxAbsIndex)
	}
	t.Logf("fixed datapath: %v (paper: mean ≈0.2489, max 2)", st.String())
}

func TestFixedCloseToIdeal(t *testing.T) {
	cfg := smallConfig()
	ideal := New(cfg)
	fx := New(cfg)
	fx.UseFixed = true
	worst := 0.0
	cfg.Vol.Walk(scan.NappeOrder, func(ix scan.Index) {
		if ix.Depth%10 != 0 {
			return
		}
		for ej := 0; ej < cfg.Arr.NY; ej += 5 {
			for ei := 0; ei < cfg.Arr.NX; ei += 5 {
				d := math.Abs(ideal.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej) -
					fx.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej))
				if d > worst {
					worst = d
				}
			}
		}
	})
	if worst > 0.1 {
		t.Errorf("fixed vs ideal diverge by %v samples", worst)
	}
}

func TestTransmitLegSharedAcrossElements(t *testing.T) {
	// The transmit argument must not depend on the element (O is fixed):
	// delay(S, D1) − delay(S, D2) must equal the receive-leg difference.
	cfg := smallConfig()
	p := New(cfg)
	tx1, _ := p.args(3, 4, 20, 0, 0)
	tx2, _ := p.args(3, 4, 20, 15, 15)
	if tx1 != tx2 {
		t.Errorf("transmit argument depends on element: %v vs %v", tx1, tx2)
	}
}

func TestArgsMatchGeometry(t *testing.T) {
	cfg := smallConfig()
	p := New(cfg)
	e := exactFor(cfg)
	for _, tc := range [][5]int{{0, 0, 0, 0, 0}, {8, 8, 25, 7, 7}, {16, 0, 49, 15, 3}} {
		argTx, argRx := p.args(tc[0], tc[1], tc[2], tc[3], tc[4])
		wantTx := e.TransmitSamples(tc[0], tc[1], tc[2])
		wantRx := e.ReceiveSamples(tc[0], tc[1], tc[2], tc[3], tc[4])
		if math.Abs(math.Sqrt(argTx)-wantTx) > 1e-6 {
			t.Errorf("tx arg mismatch at %v: %v vs %v", tc, math.Sqrt(argTx), wantTx)
		}
		if math.Abs(math.Sqrt(argRx)-wantRx) > 1e-6 {
			t.Errorf("rx arg mismatch at %v: %v vs %v", tc, math.Sqrt(argRx), wantRx)
		}
	}
}

func TestOffCenterOrigin(t *testing.T) {
	cfg := smallConfig()
	cfg.Origin = geom.Vec3{X: 0.002, Y: -0.001}
	p := New(cfg)
	st := delay.Compare(p, exactFor(cfg), 4)
	if st.MaxAbs > 2*p.Cfg.Delta*(1+1e-9) {
		t.Errorf("off-center origin: max |err| = %v", st.MaxAbs)
	}
}

func TestSweepStallsNegligibleNappeOrder(t *testing.T) {
	// §IV-B: sequential sweeps cross segment boundaries gradually, so the
	// tracker almost never needs more than one step per point.
	cfg := smallConfig()
	p := New(cfg)
	for _, el := range [][2]int{{0, 0}, {8, 8}, {15, 15}} {
		res := p.SimulateSweep(scan.NappeOrder, el[0], el[1])
		if res.Points != cfg.Vol.Points() {
			t.Fatalf("sweep visited %d points", res.Points)
		}
		if res.StallFraction() > 0.01 {
			t.Errorf("element %v: stall fraction %v too high for nappe order",
				el, res.StallFraction())
		}
	}
}

func TestSweepScanlineRestartCost(t *testing.T) {
	// Scanline order restarts the depth axis at every line: the argument
	// jumps from max depth back to min depth, forcing a multi-segment
	// re-seek. Stalls must exist yet remain a bounded fraction.
	cfg := smallConfig()
	p := New(cfg)
	res := p.SimulateSweep(scan.ScanlineOrder, 8, 8)
	if res.StallCycles == 0 {
		t.Error("scanline restarts should cost some stalls")
	}
	if res.MaxJump >= p.NumSegments() {
		t.Error("re-seek should never exceed total segment count")
	}
	nappe := p.SimulateSweep(scan.NappeOrder, 8, 8)
	if nappe.StallCycles >= res.StallCycles {
		t.Errorf("nappe order (%d stalls) should beat scanline order (%d)",
			nappe.StallCycles, res.StallCycles)
	}
}

func TestUnitCost(t *testing.T) {
	p := New(smallConfig())
	c := p.Cost()
	if c.Adders != 2 || c.Multipliers != 1 || c.Comparators != 2 {
		t.Errorf("unit arithmetic census = %+v, want 2/1/2 (§IV-B)", c)
	}
	if c.SegLUTBits <= 0 || c.SegLUTBits != p.NumSegments()*(24+13+6+25) {
		t.Errorf("segment LUT bits = %d", c.SegLUTBits)
	}
}

func TestThroughputPaperNumbers(t *testing.T) {
	// Table II: 10000 units at 167 MHz → 1.67 Tdelays/s; frame rate ≈ 8 fps
	// via the 1 fps / 20 MHz rule (paper reports 7.8 after placement).
	th := Throughput{ClockHz: 167e6, Units: 10000, CyclesPerPointOverhead: PaperOverhead}
	if got := th.PeakDelaysPerSecond(); math.Abs(got-1.67e12) > 1e9 {
		t.Errorf("peak = %v delays/s, want 1.67e12", got)
	}
	points := 128 * 128 * 1000
	fps := th.FrameRate(points)
	if fps < 7 || fps < 7.8*0.9 || fps > 9 {
		t.Errorf("frame rate = %v fps, paper band 7.8±1", fps)
	}
	// The rule itself: 20 MHz per fps.
	if clk := th.ClockForFrameRate(points, 1); math.Abs(clk-20e6) > 1e5 {
		t.Errorf("clock for 1 fps = %v, want 20 MHz", clk)
	}
	if th.String() == "" {
		t.Error("empty summary")
	}
}

func TestStallFractionEmpty(t *testing.T) {
	var r SweepResult
	if r.StallFraction() != 0 {
		t.Error("empty sweep should report 0 stalls")
	}
}
