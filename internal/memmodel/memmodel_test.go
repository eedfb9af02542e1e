package memmodel

import (
	"math"
	"testing"
	"testing/quick"
)

// paperStream is the §V-B design point: 2.5e6-entry 18-bit table, 128-bank
// 18b×1k circular buffer, 2500 stored entries per nappe (50×50 quadrant),
// 960 insonifications/s at 200 MHz.
func paperStream() StreamConfig {
	return StreamConfig{
		TableWords:     2_500_000,
		WordBits:       18,
		BufferWords:    128 * 1024,
		WordsPerNappe:  2500,
		CyclesPerNappe: 1280, // 128×128 points / 128 points-per-cycle... per block group
		ClockHz:        200e6,
		RefillsPerSec:  960,
	}
}

func TestBankSpecBits(t *testing.T) {
	b := BankSpec{WordBits: 18, Lines: 1024}
	if b.Bits() != 18432 {
		t.Errorf("Bits = %d", b.Bits())
	}
	if b.String() != "18b×1024" {
		t.Errorf("String = %q", b.String())
	}
}

func TestBankArrayPaperCapacity(t *testing.T) {
	// "just 128 18-bit BRAM banks (each having 1k lines, for a total of
	// 2.3 Mb)" — §V-B.
	a := BankArray{Spec: BankSpec{WordBits: 18, Lines: 1024}, Banks: 128}
	mb := float64(a.TotalBits()) / 1e6
	if mb < 2.2 || mb > 2.4 {
		t.Errorf("bank array capacity = %.2f Mb, paper says ~2.3 Mb", mb)
	}
	if a.ReadsPerCycle() != 128 {
		t.Errorf("reads/cycle = %d", a.ReadsPerCycle())
	}
}

func TestStaggeredLayoutNoConflicts(t *testing.T) {
	// 128 parallel readers on consecutive nappes: staggered placement must
	// be conflict-free, chunked placement must collide (§V-B).
	arr := BankArray{Spec: BankSpec{WordBits: 18, Lines: 1024}, Banks: 128}
	depths := make([]int, 128)
	for i := range depths {
		depths[i] = 37 + i // any run of consecutive depth slices
	}
	stag := Placement{Arr: arr, Layout: StaggeredLayout, Depths: 1000}
	if c := stag.Conflicts(depths); c != 0 {
		t.Errorf("staggered conflicts = %d, want 0", c)
	}
	chunk := Placement{Arr: arr, Layout: ChunkedLayout, Depths: 1000}
	if c := chunk.Conflicts(depths); c == 0 {
		t.Error("chunked layout should collide on consecutive nappes")
	}
}

func TestStaggeredBankProperty(t *testing.T) {
	p := Placement{Arr: BankArray{Spec: BankSpec{WordBits: 18, Lines: 1024}, Banks: 128},
		Layout: StaggeredLayout, Depths: 1000}
	f := func(d uint16) bool {
		b := p.Bank(int(d))
		return b >= 0 && b < 128 && b == int(d)%128
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkedBankRange(t *testing.T) {
	p := Placement{Arr: BankArray{Spec: BankSpec{WordBits: 18, Lines: 8}, Banks: 4},
		Layout: ChunkedLayout, Depths: 16}
	// 16 depths over 4 banks → 4 per bank.
	wants := map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 12: 3, 15: 3}
	for d, want := range wants {
		if got := p.Bank(d); got != want {
			t.Errorf("chunked Bank(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestPlacementDegenerate(t *testing.T) {
	var p Placement // zero banks
	if p.Bank(5) != 0 {
		t.Error("zero-bank placement should map to 0")
	}
	p2 := Placement{Arr: BankArray{Banks: 4}, Layout: ChunkedLayout, Depths: 0}
	if b := p2.Bank(2); b < 0 || b >= 4 {
		t.Errorf("degenerate chunked bank = %d", b)
	}
	if Layout(9).String() != "Layout(9)" || ChunkedLayout.String() != "chunked" ||
		StaggeredLayout.String() != "staggered" {
		t.Error("layout names")
	}
}

func TestOffchipBandwidthPaperNumbers(t *testing.T) {
	// §V-B: full 18-bit table fetched 960×/s ⇒ ≈5.4e9 B/s ("about 5.3 GB/s").
	s := paperStream()
	gbs := BandwidthGBs(s.OffchipBandwidth())
	if gbs < 5.0 || gbs > 5.8 {
		t.Errorf("18-bit stream bandwidth = %.2f GB/s, paper says ≈5.3", gbs)
	}
	s.WordBits = 14
	gbs14 := BandwidthGBs(s.OffchipBandwidth())
	if gbs14 < 3.9 || gbs14 > 4.5 {
		t.Errorf("14-bit stream bandwidth = %.2f GB/s, paper says ≈4.1", gbs14)
	}
	if gbs14 >= gbs {
		t.Error("14-bit must need less bandwidth than 18-bit")
	}
}

func TestBufferBits(t *testing.T) {
	s := paperStream()
	mb := float64(s.BufferBits()) / 1e6
	if mb < 2.2 || mb > 2.4 {
		t.Errorf("buffer = %.2f Mb, paper says 2.3 Mb", mb)
	}
}

func TestValidate(t *testing.T) {
	good := paperStream()
	if err := good.Validate(); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
	bad := good
	bad.TableWords = 0
	if bad.Validate() == nil {
		t.Error("zero table must fail")
	}
	bad = good
	bad.CyclesPerNappe = 0
	if bad.Validate() == nil {
		t.Error("zero cycles must fail")
	}
	bad = good
	bad.BufferWords = 100 // smaller than one nappe slice
	if bad.Validate() == nil {
		t.Error("undersized buffer must fail")
	}
}

func TestMarginCycles(t *testing.T) {
	// Paper: "an ample margin of 1k cycles of latency to fetch new data".
	s := paperStream()
	if m := s.MarginCycles(); m < 1000 {
		t.Errorf("margin = %d cycles, paper promises ≥ ~1k", m)
	}
	tight := s
	tight.BufferWords = s.WordsPerNappe // exactly one slice: no slack
	if m := tight.MarginCycles(); m != 0 {
		t.Errorf("single-slice margin = %d, want 0", m)
	}
}

func TestRequiredFillRateMatchesConsumption(t *testing.T) {
	s := paperStream()
	want := float64(s.WordsPerNappe) * s.ClockHz / float64(s.CyclesPerNappe)
	if got := s.RequiredFillRate(); math.Abs(got-want) > 1 {
		t.Errorf("fill rate = %v, want %v", got, want)
	}
}

func TestSimulateStreamKeepsUp(t *testing.T) {
	s := paperStream()
	// Fill at 1.2× the consumption rate: no stalls expected.
	perCycle := float64(s.WordsPerNappe) / float64(s.CyclesPerNappe)
	if stalls := s.SimulateStream(200, 1.2*perCycle); stalls != 0 {
		t.Errorf("overprovisioned stream stalled %d cycles", stalls)
	}
}

func TestSimulateStreamUnderflows(t *testing.T) {
	s := paperStream()
	perCycle := float64(s.WordsPerNappe) / float64(s.CyclesPerNappe)
	if stalls := s.SimulateStream(50, 0.5*perCycle); stalls == 0 {
		t.Error("starved stream should stall")
	}
}

func TestSimulateStreamInvalidConfigStallsEverything(t *testing.T) {
	var s StreamConfig
	s.CyclesPerNappe = 10
	if stalls := s.SimulateStream(3, 1); stalls != 30 {
		t.Errorf("invalid config stalls = %d, want 30", stalls)
	}
}
