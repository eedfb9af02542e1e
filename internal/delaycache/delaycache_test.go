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

// countingProvider wraps a BlockProvider and counts its quantized fills —
// the one fill the store runs.
type countingProvider struct {
	delay.BlockProvider
	calls atomic.Int64
}

func (c *countingProvider) FillNappe16(id int, dst delay.Block16) {
	c.calls.Add(1)
	c.BlockProvider.FillNappe16(id, dst)
}

// attach builds a private cache: a fresh store over cfg and its one
// attachment.
func attach(t *testing.T, cfg Config) *Cache {
	t.Helper()
	s, err := NewShared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Attach()
}

// one is the single-transmit provider set of p.
func one(p delay.BlockProvider) []delay.BlockProvider { return []delay.BlockProvider{p} }

func testExact(t *testing.T) (*delay.Exact, int) {
	t.Helper()
	vol := scan.NewVolume(geom.Radians(40), geom.Radians(20), 0.03, 5, 3, 8)
	arr := xdcr.NewArray(4, 4, 0.2e-3)
	return delay.NewExact(vol, arr, geom.Vec3{}, delay.Converter{C: 1540, Fs: 32e6}), vol.Depth.N
}

func TestCacheValidation(t *testing.T) {
	e, depths := testExact(t)
	if _, err := NewShared(Config{Depths: depths}); err == nil {
		t.Error("no provider must fail")
	}
	if _, err := NewShared(Config{Providers: one(nil), Depths: depths}); err == nil {
		t.Error("nil provider must fail")
	}
	if _, err := NewShared(Config{Providers: one(e), Depths: 0}); err == nil {
		t.Error("zero depths must fail")
	}
	if _, err := NewShared(Config{Providers: one(e), Depths: depths, BudgetBytes: -1}); err != nil {
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
		store, err := NewShared(Config{Providers: one(e), Depths: depths, BudgetBytes: c.budget})
		if err != nil {
			t.Fatalf("budget %d: %v", c.budget, err)
		}
		if got := store.ResidentBlocks(); got != c.resident {
			t.Errorf("budget %d: resident = %d, want %d", c.budget, got, c.resident)
		}
		if full := store.FullResidency(); full != (c.resident == depths) {
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

	narrow, err := NewShared(Config{Providers: one(e), Depths: vol.Depth.N, BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	wideBlockBytes := int64(e.Layout().BlockLen()) * wideDelayBytes
	wide := int(budget / wideBlockBytes)
	if wide == 0 {
		t.Fatal("design point must retain float64 blocks at this scale")
	}
	if narrow.ResidentBlocks() >= vol.Depth.N {
		t.Fatal("test volume too shallow to observe the coverage ratio")
	}
	if got, want := narrow.ResidentBlocks(), 4*wide; got != want {
		t.Errorf("narrow resident = %d, want 4× float64 = %d", got, want)
	}
	if narrow.BlockBytes()*4 != wideBlockBytes {
		t.Errorf("BlockBytes: narrow %d, float64 %d", narrow.BlockBytes(), wideBlockBytes)
	}
}

func TestCacheBitIdentity16(t *testing.T) {
	// Resident blocks must be bit-identical to the provider's quantized
	// fill across repeated frames, and the rest of the depth axis must not
	// be resident.
	e, depths := testExact(t)
	blockBytes := int64(e.Layout().BlockLen()) * narrowDelayBytes
	cache := attach(t, Config{Providers: one(e), Depths: depths, BudgetBytes: blockBytes * int64(depths/2)})
	want := make(delay.Block16, e.Layout().BlockLen())
	for frame := 0; frame < 3; frame++ {
		for id := 0; id < depths; id++ {
			blk := cache.Nappe16T(0, id)
			if (blk != nil) != (id < depths/2) {
				t.Fatalf("frame %d nappe %d: resident = %v", frame, id, blk != nil)
			}
			if blk == nil {
				continue
			}
			e.FillNappe16(id, want)
			for k := range want {
				if want[k] != blk[k] {
					t.Fatalf("frame %d nappe %d slot %d: retained %v, direct %v", frame, id, k, blk[k], want[k])
				}
			}
		}
	}
}

func TestCacheStatsAndSingleFill(t *testing.T) {
	e, depths := testExact(t)
	counting := &countingProvider{BlockProvider: e}
	blockBytes := int64(e.Layout().BlockLen()) * narrowDelayBytes
	resident := 3
	cache := attach(t, Config{Providers: one(counting), Depths: depths,
		BudgetBytes: blockBytes * int64(resident)})
	frames := 4
	for frame := 0; frame < frames; frame++ {
		for id := 0; id < depths; id++ {
			cache.Nappe16T(0, id)
		}
	}
	st := cache.Stats()
	// Resident nappes generate once ever, in the store; the rest miss every
	// frame and the caller regenerates them.
	if counting.calls.Load() != int64(resident) {
		t.Errorf("store ran the generator %d times, want %d", counting.calls.Load(), resident)
	}
	wantMisses := int64(resident + (depths-resident)*frames)
	if st.Fills != int64(resident) {
		t.Errorf("Fills = %d, want %d", st.Fills, resident)
	}
	if st.Hits != int64(resident*(frames-1)) {
		t.Errorf("Hits = %d, want %d", st.Hits, resident*(frames-1))
	}
	if st.Misses != wantMisses || cache.Shared().Stats().Misses != wantMisses {
		t.Errorf("Misses = %d (store %d), want %d", st.Misses, cache.Shared().Stats().Misses, wantMisses)
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
	cache := attach(t, Config{Providers: one(counting), Depths: depths, BudgetBytes: -1})
	want := make(delay.Block16, e.Layout().BlockLen())
	e.FillNappe16(0, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for id := 0; id < depths; id++ {
					cache.Nappe16T(0, id)
				}
			}
		}()
	}
	wg.Wait()
	if counting.calls.Load() != int64(depths) {
		t.Errorf("generator ran %d times for %d resident blocks", counting.calls.Load(), depths)
	}
	got := cache.Nappe16T(0, 0)
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
	cache := attach(t, Config{Providers: one(e), Depths: depths,
		BudgetBytes: blockBytes * int64(resident)})
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
			after := cache.Stats().Fills + readers
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
			for rep := 0; rep < reps; rep++ {
				for id := 0; id < depths; id++ {
					cache.Nappe16T(0, id)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()
	st := cache.Stats()
	// Request ledger: every in-range request counts once, resident or not.
	requests := int64(readers * reps * depths)
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
	cache := attach(t, Config{Providers: one(counting), Depths: depths, BudgetBytes: -1})
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
