package experiments

import (
	"math"
	"strings"
	"testing"

	"ultrabeam/internal/core"
	"ultrabeam/internal/fpga"
	"ultrabeam/internal/tablesteer"
)

func TestSpecsTableContainsTableIRows(t *testing.T) {
	s := SpecsTable(core.PaperSpec()).String()
	for _, want := range []string{"1540 m/s", "4 MHz", "100×100", "0.385 mm",
		"73°×73°×500λ", "32 MHz", "128×128×1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I output missing %q:\n%s", want, s)
		}
	}
}

func TestSweepOrders(t *testing.T) {
	s := core.ReducedSpec()
	r := SweepOrders(s)
	if r.NappeChanges != s.FocalDepth-1 {
		t.Errorf("nappe changes = %d", r.NappeChanges)
	}
	if r.ScanlineChanges <= r.NappeChanges {
		t.Error("scanline order must have worse locality")
	}
	if !strings.Contains(r.Table().String(), "nappe") {
		t.Error("table must name the orders")
	}
}

func TestFigure2(t *testing.T) {
	r := Figure2(core.PaperSpec(), 2000)
	if r.Segments < 60 || r.Segments > 80 {
		t.Errorf("segments = %d, paper ~70", r.Segments)
	}
	if r.MaxErr > r.Delta*(1+1e-9) {
		t.Errorf("max err %v exceeds δ %v", r.MaxErr, r.Delta)
	}
	if len(r.Profile.X) != 2000 {
		t.Error("profile size")
	}
}

func TestTableFreeAccuracyE1(t *testing.T) {
	r := TableFreeAccuracy(core.PaperSpec(), 8, 12)
	if r.Ideal.MaxAbs > 0.5+1e-9 {
		t.Errorf("ideal max = %v, paper 0.5", r.Ideal.MaxAbs)
	}
	if r.Ideal.MeanAbs < 0.12 || r.Ideal.MeanAbs > 0.28 {
		t.Errorf("ideal mean = %v, paper ≈0.204", r.Ideal.MeanAbs)
	}
	if r.Fixed.MeanAbsIndex < 0.15 || r.Fixed.MeanAbsIndex > 0.3 {
		t.Errorf("fixed mean index err = %v, paper ≈0.2489", r.Fixed.MeanAbsIndex)
	}
	if r.Fixed.MaxAbsIndex > 2 {
		t.Errorf("fixed max index err = %d, paper 2", r.Fixed.MaxAbsIndex)
	}
	if !strings.Contains(r.Table().String(), "0.204") {
		t.Error("table must cite the paper value")
	}
}

func TestFigure3aPaperScale(t *testing.T) {
	r := Figure3a(core.PaperSpec(), 10, 50)
	if r.Entries != 2_500_000 {
		t.Errorf("entries = %d", r.Entries)
	}
	if r.Pruned == 0 {
		t.Error("directivity should prune some shallow entries")
	}
	if len(r.Dots) == 0 {
		t.Error("dot cloud empty")
	}
	if mb := float64(r.StorageBits) / 1e6; math.Abs(mb-45) > 0.1 {
		t.Errorf("storage = %.1f Mb", mb)
	}
}

func TestFigure3cPlane(t *testing.T) {
	s := core.ReducedSpec()
	plane, it, ip := Figure3c(s, 20, 10)
	if len(plane) != s.Elements() {
		t.Fatalf("plane size = %d", len(plane))
	}
	if it <= s.FocalTheta/2 || ip <= s.FocalPhi/2 {
		t.Errorf("steering indices (%d,%d) should be right of center", it, ip)
	}
	// A steered plane has nonzero tilt.
	if plane[0] == plane[len(plane)-1] {
		t.Error("plane should be tilted")
	}
}

func TestFigure3dSlice(t *testing.T) {
	s := core.ReducedSpec()
	slice := Figure3d(s, 20, 10, s.FocalDepth/2)
	if len(slice) == 0 {
		t.Fatal("empty slice")
	}
	for _, v := range slice {
		if v <= 0 || math.IsNaN(v) {
			t.Fatal("steered slice must hold positive delays")
		}
	}
}

func TestSteerAccuracyE3(t *testing.T) {
	r := SteerAccuracy(core.PaperSpec(), tablesteer.SweepOptions{
		StrideTheta: 8, StridePhi: 8, StrideDepth: 8, StrideElem: 9, Parallel: true})
	fsamples := r.Stats.MeanAbsSecAcc * r.Fs
	if fsamples < 1.0 || fsamples > 2.0 {
		t.Errorf("mean = %.3f samples, paper 1.4285", fsamples)
	}
	if m := r.Stats.MaxAcceptedSamples(r.Fs); m < 60 || m > 130 {
		t.Errorf("filtered max = %.0f samples, paper 99", m)
	}
	if b := r.BoundSec * r.Fs; b < 120 || b > 320 {
		t.Errorf("bound = %.0f samples, paper 214", b)
	}
	if !strings.Contains(r.Table().String(), "44.641 ns") {
		t.Error("table must cite the paper mean")
	}
}

func TestFixedPointE4(t *testing.T) {
	r := FixedPoint(500_000, 3)
	if r.Off13 < 0.30 || r.Off13 > 0.36 {
		t.Errorf("13-bit fraction = %v, paper 0.33", r.Off13)
	}
	if r.Off18Cmb >= 0.02 {
		t.Errorf("combined 18-bit fraction = %v, paper <0.02", r.Off18Cmb)
	}
	if r.Off18 <= r.Off18Cmb {
		t.Error("three roundings must be worse than two")
	}
	if r.Off14 <= r.Off18 || r.Off14 >= r.Off13 {
		t.Errorf("14-bit fraction %v should sit between 18-bit %v and 13-bit %v",
			r.Off14, r.Off18, r.Off13)
	}
	if !strings.Contains(r.Table().String(), "33%") {
		t.Error("table must cite the paper numbers")
	}
}

func TestStorageE5(t *testing.T) {
	r := Storage(core.PaperSpec())
	if r.Plan.RefEntries != 2_500_000 || r.Plan.CorrEntries != 832_000 {
		t.Errorf("plan = %+v", r.Plan)
	}
	if r.Stream18GBs < 5.0 || r.Stream18GBs > 5.8 {
		t.Errorf("18b bandwidth = %v GB/s", r.Stream18GBs)
	}
	if r.Stream14GBs < 3.9 || r.Stream14GBs > 4.5 {
		t.Errorf("14b bandwidth = %v GB/s", r.Stream14GBs)
	}
	if r.MarginCycles < 1000 {
		t.Errorf("margin = %d cycles", r.MarginCycles)
	}
	if e := r.Naive.Entries(); e < 163e9 || e > 165e9 {
		t.Errorf("naive entries = %v", e)
	}
	if !strings.Contains(r.Table().String(), "GB/s") {
		t.Error("table rendering")
	}
}

func TestThroughputE6(t *testing.T) {
	r := Throughput(core.PaperSpec())
	if math.Abs(r.TFPeak-1.67e12) > 1e10 {
		t.Errorf("TF peak = %v", r.TFPeak)
	}
	if r.TFFps < 7 || r.TFFps > 9 {
		t.Errorf("TF fps = %v, paper 7.8", r.TFFps)
	}
	if r.TSPeak < 3.2e12 || r.TSPeak > 3.4e12 {
		t.Errorf("TS peak = %v, paper 3.3e12", r.TSPeak)
	}
	if r.TSFps < 19 || r.TSFps > 21 {
		t.Errorf("TS fps = %v, paper 19.7", r.TSFps)
	}
}

func TestTableIIT2(t *testing.T) {
	s := core.PaperSpec()
	tf := TableFreeAccuracy(s, 16, 24) // coarse but stable strides
	steer := SteerAccuracy(s, tablesteer.SweepOptions{
		StrideTheta: 16, StridePhi: 16, StrideDepth: 16, StrideElem: 12, Parallel: true})
	r := TableII(s, fpga.Virtex7VX1140T2(), tf, steer)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		paper, ok := PaperTableIIRow(row.Arch)
		if !ok {
			t.Fatalf("no paper row for %s", row.Arch)
		}
		if math.Abs(row.LUTFrac-paper.LUTFrac) > 0.08 {
			t.Errorf("%s LUT = %.2f, paper %.2f", row.Arch, row.LUTFrac, paper.LUTFrac)
		}
		if math.Abs(row.RegFrac-paper.RegFrac) > 0.06 {
			t.Errorf("%s regs = %.2f, paper %.2f", row.Arch, row.RegFrac, paper.RegFrac)
		}
		if math.Abs(row.BRAMFrac-paper.BRAMFrac) > 0.05 {
			t.Errorf("%s BRAM = %.2f, paper %.2f", row.Arch, row.BRAMFrac, paper.BRAMFrac)
		}
		if math.Abs(row.ClockMHz-paper.ClockMHz) > 2 {
			t.Errorf("%s clock = %.0f, paper %.0f", row.Arch, row.ClockMHz, paper.ClockMHz)
		}
		if paper.OffchipGBs > 0 && math.Abs(row.OffchipGBs-paper.OffchipGBs)/paper.OffchipGBs > 0.1 {
			t.Errorf("%s bandwidth = %.1f, paper %.1f", row.Arch, row.OffchipGBs, paper.OffchipGBs)
		}
		if math.Abs(row.Tdelays-paper.Tdelays)/paper.Tdelays > 0.05 {
			t.Errorf("%s throughput = %v, paper %v", row.Arch, row.Tdelays, paper.Tdelays)
		}
		if math.Abs(row.FrameRate-paper.FrameRate)/paper.FrameRate > 0.12 {
			t.Errorf("%s fps = %.1f, paper %.1f", row.Arch, row.FrameRate, paper.FrameRate)
		}
		if row.Channels != paper.Channels {
			t.Errorf("%s channels = %s, paper %s", row.Arch, row.Channels, paper.Channels)
		}
	}
	out := r.Table().String()
	for _, want := range []string{"TABLEFREE", "TABLESTEER-14b", "TABLESTEER-18b"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %s", want)
		}
	}
	t.Logf("\n%s", out)
}

func TestImageQualityQ1(t *testing.T) {
	s := core.ReducedSpec()
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 21, 1, 120
	s.PhiDeg = 0
	s.DepthLambda = 80 // 30.8 mm depth keeps echo buffers small
	r, err := ImageQuality(s, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tablefree-fixed", "tablesteer-18b"} {
		sim, ok := r.Similarity[name]
		if !ok {
			t.Fatalf("missing similarity for %s", name)
		}
		if sim < 0.95 {
			t.Errorf("%s similarity = %.4f, the §II-A claim wants ≈1", name, sim)
		}
		if psr := r.PeakRatio[name]; psr < 40 {
			t.Errorf("%s difference only %.1f dB below the exact peak", name, psr)
		}
	}
	if r.Similarity["exact"] != 1 {
		t.Error("exact self-similarity must be 1")
	}
	if !strings.Contains(r.Table().String(), "similarity") {
		t.Error("table rendering")
	}
}

func TestBlockPathB1(t *testing.T) {
	// Tiny spec: B1's point is the rate contrast, but the test asserts only
	// the invariants (counts, bit-identity, rendering) — the wall-clock
	// ratios are what `usbeam block` reports.
	s := core.ReducedSpec()
	s.ElemX, s.ElemY = 8, 8
	s.FocalTheta, s.FocalPhi, s.FocalDepth = 9, 9, 12
	r := BlockPath(s)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Delays != s.Points()*s.Elements() {
			t.Errorf("%s delays = %d, want %d", row.Provider, row.Delays, s.Points()*s.Elements())
		}
		if row.Mismatches != 0 {
			t.Errorf("%s block path diverges in %d int16 slots", row.Provider, row.Mismatches)
		}
		if row.ScalarPerSec <= 0 || row.BlockPerSec <= 0 {
			t.Errorf("%s rates must be positive: %+v", row.Provider, row)
		}
	}
	if s := r.Table().String(); !strings.Contains(s, "speedup") {
		t.Error("table rendering")
	}
}

func TestPaperTableIIRowLookup(t *testing.T) {
	if _, ok := PaperTableIIRow("nonsense"); ok {
		t.Error("unknown arch should miss")
	}
	r, ok := PaperTableIIRow("TABLEFREE")
	if !ok || r.FrameRate != 7.8 {
		t.Error("paper row lookup")
	}
}
