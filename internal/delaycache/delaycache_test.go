package delaycache

import (
	"sync"
	"sync/atomic"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/memmodel"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

// countingProvider wraps a BlockProvider and counts fill invocations on
// both granularities. It deliberately does NOT implement BlockProvider16 —
// narrow fills must route through the quantizing scratch path — so it also
// covers the non-native provider case.
type countingProvider struct {
	delay.BlockProvider
	calls atomic.Int64
}

func (c *countingProvider) FillNappe(id int, dst []float64) {
	c.calls.Add(1)
	c.BlockProvider.FillNappe(id, dst)
}

func testExact(t *testing.T) (*delay.Exact, int) {
	t.Helper()
	vol := scan.NewVolume(geom.Radians(40), geom.Radians(20), 0.03, 5, 3, 8)
	arr := xdcr.NewArray(4, 4, 0.2e-3)
	return delay.NewExact(vol, arr, geom.Vec3{}, delay.Converter{C: 1540, Fs: 32e6}), vol.Depth.N
}

func TestCacheValidation(t *testing.T) {
	e, depths := testExact(t)
	if _, err := New(Config{Provider: nil, Depths: depths}); err == nil {
		t.Error("nil provider must fail")
	}
	if _, err := New(Config{Provider: e, Depths: 0}); err == nil {
		t.Error("zero depths must fail")
	}
	if _, err := New(Config{Provider: e, Depths: depths, BudgetBytes: -1}); err != nil {
		t.Errorf("unlimited budget: %v", err)
	}
}

func TestResidencyPolicy(t *testing.T) {
	e, depths := testExact(t)
	blockBytes := int64(e.Layout().BlockLen()) * narrowDelayBytes
	cases := []struct {
		budget   int64
		resident int
	}{
		{-1, depths},                               // unlimited → full
		{blockBytes * int64(depths), depths},       // exactly full
		{blockBytes*int64(depths) - 1, depths - 1}, // one byte short drops a block
		{blockBytes * 3, 3},                        // partial prefix
		{blockBytes - 1, 0},                        // under one block retains nothing
		{0, 0},
	}
	for _, c := range cases {
		cache, err := New(Config{Provider: e, Depths: depths, BudgetBytes: c.budget})
		if err != nil {
			t.Fatalf("budget %d: %v", c.budget, err)
		}
		if got := cache.ResidentBlocks(); got != c.resident {
			t.Errorf("budget %d: resident = %d, want %d", c.budget, got, c.resident)
		}
		if full := cache.FullResidency(); full != (c.resident == depths) {
			t.Errorf("budget %d: FullResidency = %v", c.budget, full)
		}
	}
}

// TestNarrowResidencyQuadruples pins the tentpole's coverage claim: at any
// fixed byte budget — the §V-B BudgetFromBanks design point in particular —
// narrow blocks retain exactly 4× the nappes the float64 representation
// held (once the wide count is nonzero and the volume is deep enough).
func TestNarrowResidencyQuadruples(t *testing.T) {
	vol := scan.NewVolume(geom.Radians(40), geom.Radians(20), 0.1, 8, 8, 2049)
	arr := xdcr.NewArray(4, 4, 0.2e-3)
	e := delay.NewExact(vol, arr, geom.Vec3{}, delay.Converter{C: 1540, Fs: 32e6})
	budget := BudgetFromBanks(memmodel.BankArray{
		Spec: memmodel.BankSpec{WordBits: 18, Lines: 1024}, Banks: 128})

	narrow, err := New(Config{Provider: e, Depths: vol.Depth.N, BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(Config{Provider: e, Depths: vol.Depth.N, BudgetBytes: budget, Wide: true})
	if err != nil {
		t.Fatal(err)
	}
	if wide.ResidentBlocks() == 0 {
		t.Fatal("design point must retain wide blocks at this scale")
	}
	if narrow.ResidentBlocks() >= vol.Depth.N {
		t.Fatal("test volume too shallow to observe the coverage ratio")
	}
	if got, want := narrow.ResidentBlocks(), 4*wide.ResidentBlocks(); got != want {
		t.Errorf("narrow resident = %d, want 4× wide = %d", got, want)
	}
	if narrow.BlockBytes()*4 != wide.BlockBytes() {
		t.Errorf("BlockBytes: narrow %d, wide %d", narrow.BlockBytes(), wide.BlockBytes())
	}
}

func TestCacheBitIdentity16(t *testing.T) {
	// Cached narrow fills — resident (copied), resident (direct Nappe16)
	// and non-resident (regenerated) — must all be bit-identical to the
	// provider's quantized fill, across repeated frames.
	e, depths := testExact(t)
	blockBytes := int64(e.Layout().BlockLen()) * narrowDelayBytes
	cache, err := New(Config{Provider: e, Depths: depths, BudgetBytes: blockBytes * int64(depths/2)})
	if err != nil {
		t.Fatal(err)
	}
	want := make(delay.Block16, e.Layout().BlockLen())
	got := make(delay.Block16, e.Layout().BlockLen())
	for frame := 0; frame < 3; frame++ {
		for id := 0; id < depths; id++ {
			e.FillNappe16(id, want)
			cache.FillNappe16(id, got)
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("frame %d nappe %d slot %d: cache %v, direct %v",
						frame, id, k, got[k], want[k])
				}
			}
			if blk := cache.Nappe16(id); blk != nil {
				for k := range want {
					if want[k] != blk[k] {
						t.Fatalf("nappe %d slot %d: retained %v, direct %v", id, k, blk[k], want[k])
					}
				}
			}
		}
	}
}

func TestNarrowCacheGoldenFloatPathUncached(t *testing.T) {
	// On a narrow cache the float64 accessors must stay golden: FillNappe
	// always reproduces the provider's fractional values (never a widened
	// quantized block) and Nappe reports nothing resident.
	e, depths := testExact(t)
	cache, err := New(Config{Provider: e, Depths: depths, BudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	cache.Warm()
	want := make([]float64, e.Layout().BlockLen())
	got := make([]float64, e.Layout().BlockLen())
	for id := 0; id < depths; id++ {
		if cache.Nappe(id) != nil {
			t.Fatal("narrow cache must not serve float64 residency")
		}
		e.FillNappe(id, want)
		cache.FillNappe(id, got)
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("nappe %d slot %d: %v != %v", id, k, got[k], want[k])
			}
		}
	}
}

func TestWideCacheBitIdentity(t *testing.T) {
	// A/B mode: the wide cache reproduces the PR-2 semantics — float64
	// blocks served from residency, bit-identical to the provider.
	e, depths := testExact(t)
	cache, err := New(Config{Provider: e, Depths: depths, BudgetBytes: -1, Wide: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cache.Wide() {
		t.Fatal("Wide() must report A/B mode")
	}
	want := make([]float64, e.Layout().BlockLen())
	got := make([]float64, e.Layout().BlockLen())
	for frame := 0; frame < 2; frame++ {
		for id := 0; id < depths; id++ {
			e.FillNappe(id, want)
			cache.FillNappe(id, got)
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("nappe %d slot %d: %v != %v", id, k, got[k], want[k])
				}
			}
			if blk := cache.Nappe(id); blk == nil {
				t.Fatalf("nappe %d must be resident", id)
			}
			if cache.Nappe16(id) != nil {
				t.Error("wide cache must not serve narrow residency")
			}
		}
	}
}

func TestCacheScalarPathForwards(t *testing.T) {
	e, depths := testExact(t)
	cache, err := New(Config{Provider: e, Depths: depths, BudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cache.DelaySamples(1, 2, 3, 0, 1), e.DelaySamples(1, 2, 3, 0, 1); got != want {
		t.Errorf("DelaySamples = %v, want %v", got, want)
	}
	if cache.Name() != "cached(exact)" {
		t.Errorf("Name = %q", cache.Name())
	}
	if cache.Layout() != e.Layout() {
		t.Errorf("Layout = %v", cache.Layout())
	}
}

func TestCacheStatsAndSingleFill(t *testing.T) {
	e, depths := testExact(t)
	counting := &countingProvider{BlockProvider: e}
	blockBytes := int64(e.Layout().BlockLen()) * narrowDelayBytes
	resident := 3
	cache, err := New(Config{Provider: counting, Depths: depths,
		BudgetBytes: blockBytes * int64(resident)})
	if err != nil {
		t.Fatal(err)
	}
	dst := make(delay.Block16, e.Layout().BlockLen())
	frames := 4
	for frame := 0; frame < frames; frame++ {
		for id := 0; id < depths; id++ {
			cache.FillNappe16(id, dst)
		}
	}
	st := cache.Stats()
	// Resident nappes generate once ever; the rest generate every frame.
	wantCalls := int64(resident + (depths-resident)*frames)
	if counting.calls.Load() != wantCalls {
		t.Errorf("generator ran %d times, want %d", counting.calls.Load(), wantCalls)
	}
	if st.Fills != int64(resident) {
		t.Errorf("Fills = %d, want %d", st.Fills, resident)
	}
	if st.Hits != int64(resident*(frames-1)) {
		t.Errorf("Hits = %d, want %d", st.Hits, resident*(frames-1))
	}
	if st.Misses != wantCalls {
		t.Errorf("Misses = %d, want %d", st.Misses, wantCalls)
	}
	if st.DelayBytes != narrowDelayBytes {
		t.Errorf("DelayBytes = %d", st.DelayBytes)
	}
	if st.BytesResident != int64(resident)*blockBytes {
		t.Errorf("BytesResident = %d", st.BytesResident)
	}
	wantRate := float64(st.Hits) / float64(st.Hits+st.Misses)
	if st.HitRate() != wantRate {
		t.Errorf("HitRate = %v, want %v", st.HitRate(), wantRate)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	// Many goroutines hammering the same nappes: the generator must run at
	// most once per resident block and every reader must see full data
	// (run under -race in CI).
	e, depths := testExact(t)
	counting := &countingProvider{BlockProvider: e}
	cache, err := New(Config{Provider: counting, Depths: depths, BudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := make(delay.Block16, e.Layout().BlockLen())
	e.FillNappe16(0, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(delay.Block16, e.Layout().BlockLen())
			for rep := 0; rep < 20; rep++ {
				for id := 0; id < depths; id++ {
					cache.FillNappe16(id, dst)
				}
			}
		}()
	}
	wg.Wait()
	if counting.calls.Load() != int64(depths) {
		t.Errorf("generator ran %d times for %d resident blocks", counting.calls.Load(), depths)
	}
	got := cache.Nappe16(0)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("slot %d: %v != %v", k, got[k], want[k])
		}
	}
}

// TestStatsUnderConcurrentReaders exercises the hit/miss/bytes accounting
// while Stats snapshots race against readers on a partially resident cache
// (run under -race in CI): every snapshot must be internally sane, and the
// final counts must balance exactly against the request total.
func TestStatsUnderConcurrentReaders(t *testing.T) {
	e, depths := testExact(t)
	blockBytes := int64(e.Layout().BlockLen()) * narrowDelayBytes
	resident := depths / 2
	cache, err := New(Config{Provider: e, Depths: depths,
		BudgetBytes: blockBytes * int64(resident)})
	if err != nil {
		t.Fatal(err)
	}
	const readers, reps = 6, 25
	var wg, pollWG sync.WaitGroup
	stop := make(chan struct{})
	pollWG.Add(1)
	go func() { // concurrent Stats poller, live for the whole read storm
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := cache.Stats()
			if st.Hits < 0 || st.Misses < 0 || st.Fills > int64(st.ResidentBlocks) {
				t.Errorf("inconsistent snapshot: %+v", st)
				return
			}
			// Fills and BytesResident are two atomic loads, and a filler bumps
			// the bytes' counter just before the count's. So the bytes were
			// read no earlier than st.Fills and no later than the next
			// snapshot's, ahead of it by at most one fill per goroutine in
			// flight. The exact balance is held on the quiescent snapshot
			// below.
			after := cache.Stats().Fills + 2*readers
			if st.BytesResident < st.Fills*st.BlockBytes || st.BytesResident > after*st.BlockBytes {
				t.Errorf("BytesResident %d outside [%d, %d] fills × BlockBytes %d",
					st.BytesResident, st.Fills, after, st.BlockBytes)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(delay.Block16, e.Layout().BlockLen())
			for rep := 0; rep < reps; rep++ {
				for id := 0; id < depths; id++ {
					cache.FillNappe16(id, dst)
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for id := 0; id < depths; id++ {
					cache.Nappe16(id)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	st := cache.Stats()
	// Request ledger: FillNappe16 and Nappe16 each issued readers×reps×depths
	// requests, but Nappe16 only counts inside the resident set.
	requests := int64(readers * reps * (depths + resident))
	if st.Hits+st.Misses != requests {
		t.Errorf("hits %d + misses %d != %d requests", st.Hits, st.Misses, requests)
	}
	if st.Fills != int64(resident) || st.BytesResident != st.Fills*st.BlockBytes {
		t.Errorf("Fills = %d (%d bytes resident), want %d (%d)", st.Fills, st.BytesResident, resident, int64(resident)*st.BlockBytes)
	}
	if rate := st.HitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("HitRate = %v, want in (0,1)", rate)
	}
}

func TestWarm(t *testing.T) {
	e, depths := testExact(t)
	counting := &countingProvider{BlockProvider: e}
	cache, err := New(Config{Provider: counting, Depths: depths, BudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	cache.Warm()
	if counting.calls.Load() != int64(depths) {
		t.Errorf("Warm ran generator %d times, want %d", counting.calls.Load(), depths)
	}
	st := cache.Stats()
	if st.Fills != int64(depths) || st.Hits != 0 {
		t.Errorf("after Warm: %+v", st)
	}
	cache.Warm() // idempotent: all hits now
	if got := cache.Stats().Hits; got != int64(depths) {
		t.Errorf("second Warm hits = %d, want %d", got, depths)
	}
}

func TestBudgetFromBanks(t *testing.T) {
	banks := memmodel.BankArray{Spec: memmodel.BankSpec{WordBits: 18, Lines: 1024}, Banks: 128}
	// 128 banks × 1k lines = 128k delay words at the float64-era 8 bytes:
	// the fixed design-point budget narrow blocks stretch 4× further.
	if got, want := BudgetFromBanks(banks), int64(128*1024*8); got != want {
		t.Errorf("BudgetFromBanks = %d, want %d", got, want)
	}
	if banks.Words() != 128*1024 {
		t.Errorf("Words = %d", banks.Words())
	}
	if banks.Bytes() != int64(banks.TotalBits())/8 {
		t.Errorf("Bytes = %d", banks.Bytes())
	}
}

// Cache must satisfy both block interfaces and the session's fast path.
var (
	_ delay.BlockProvider   = (*Cache)(nil)
	_ delay.BlockProvider16 = (*Cache)(nil)
)
