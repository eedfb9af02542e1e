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

// expanded returns a resident block's delays as the Block16 it was
// converted from.
func expanded(n *Native) delay.Block16 {
	blk := make(delay.Block16, n.Layout.BlockLen())
	n.Expand(blk)
	return blk
}

// nativeBytes returns the bytes a store on this host holds for p's nappes
// ids: their tile-native forms, or their raw blocks where the host has no
// tile-native bodies.
func nativeBytes(p delay.BlockProvider, ids ...int) (sum int64) {
	l := p.Layout()
	raw := make(delay.Block16, l.BlockLen())
	for _, id := range ids {
		p.FillNappe16(id, raw)
		if !tileNativeHost() {
			sum += 2 * int64(len(raw))
			continue
		}
		sum += NewNative(l, l.SnakeTiles(), raw).Bytes()
	}
	return sum
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
			nat := cache.Nappe16T(0, id)
			if (nat != nil) != (id < depths/2) {
				t.Fatalf("frame %d nappe %d: resident = %v", frame, id, nat != nil)
			}
			if nat == nil {
				continue
			}
			blk := expanded(nat)
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
	// The budget is counted in raw int16 blocks; a host with the
	// tile-native bodies holds each in its tile-native form, about 60 % of
	// that.
	if st.BlockBytes != blockBytes {
		t.Errorf("BlockBytes = %d, want the raw block's %d", st.BlockBytes, blockBytes)
	}
	if want := nativeBytes(e, 0, 1, 2); st.BytesResident != want || tileNativeHost() && want >= int64(resident)*blockBytes {
		t.Errorf("BytesResident = %d, want the stored blocks' %d (raw %d)", st.BytesResident, want, int64(resident)*blockBytes)
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
	got := expanded(cache.Nappe16T(0, 0))
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
	var ids []int
	lo, hi := int64(1<<62), int64(0)
	for id := range resident {
		ids = append(ids, id)
		n := nativeBytes(e, id)
		lo, hi = min(lo, n), max(hi, n)
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
			// flight, each block holding between lo and hi bytes. The exact
			// balance is held on the quiescent snapshot below.
			after := cache.Stats().Fills + readers
			if st.BytesResident < st.Fills*lo || st.BytesResident > after*hi {
				t.Errorf("BytesResident %d outside [%d × %d, %d × %d]",
					st.BytesResident, st.Fills, lo, after, hi)
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
	if want := nativeBytes(e, ids...); st.Fills != int64(resident) || st.BytesResident != want {
		t.Errorf("Fills = %d (%d bytes resident), want %d (%d)", st.Fills, st.BytesResident, resident, want)
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
