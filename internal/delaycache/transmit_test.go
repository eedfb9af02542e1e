package delaycache

import (
	"runtime"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/faultpoint"
)

// transmitProviders derives n steered per-transmit block providers from the
// shared test geometry.
func transmitProviders(t *testing.T, n int) ([]delay.BlockProvider, int) {
	t.Helper()
	e, depths := testExact(t)
	txs := delay.SteeredTransmits(n, 4e-3, 3e-3)
	out := make([]delay.BlockProvider, n)
	for i, tx := range txs {
		p, err := e.WithTransmit(tx)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p.(delay.BlockProvider)
	}
	return out, depths
}

// TestTransmitKeysAreDistinct: each (transmit, nappe) slot must retain the
// block of its own transmit's delay law, bit-identical to that provider's
// direct fill.
func TestTransmitKeysAreDistinct(t *testing.T) {
	provs, depths := transmitProviders(t, 3)
	cache := attach(t, Config{Providers: provs, Depths: depths, BudgetBytes: -1})
	if cache.Shared().Transmits() != 3 {
		t.Fatalf("Transmits = %d", cache.Shared().Transmits())
	}
	if !cache.Shared().FullResidency() {
		t.Fatal("unlimited budget must retain the whole (transmit, nappe) space")
	}
	want := make(delay.Block16, provs[0].Layout().BlockLen())
	for tx := 0; tx < 3; tx++ {
		for id := 0; id < depths; id++ {
			nat := cache.Nappe16T(tx, id)
			if nat == nil {
				t.Fatalf("tx %d nappe %d not resident at full residency", tx, id)
			}
			got := expanded(nat)
			provs[tx].FillNappe16(id, want)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("tx %d nappe %d differs at %d", tx, id, k)
				}
			}
		}
	}
	// Steered transmits must actually differ somewhere (guards against all
	// keys aliasing one law).
	a, b := expanded(cache.Nappe16T(0, depths-1)), expanded(cache.Nappe16T(2, depths-1))
	same := true
	for k := range a {
		if a[k] != b[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("transmit 0 and 2 retained identical deepest blocks — keys alias")
	}
	if st := cache.Stats(); st.TotalBlocks != 3*depths || st.Transmits != 3 {
		t.Errorf("stats: %+v", st)
	}
}

// TestTransmitResidencyInterleavesNappeMajor pins the shared-budget policy:
// with budget for k blocks, the resident keys are id·N+t < k — the shallow
// depth prefix of every transmit, not all depths of transmit 0.
func TestTransmitResidencyInterleavesNappeMajor(t *testing.T) {
	provs, depths := transmitProviders(t, 2)
	// Budget for 5 blocks: nappes 0–1 fully resident for both transmits,
	// nappe 2 resident for transmit 0 only.
	cache := attach(t, Config{Providers: provs, Depths: depths,
		BudgetBytes: 5 * int64(provs[0].Layout().BlockLen()) * narrowDelayBytes})
	if cache.Shared().ResidentBlocks() != 5 {
		t.Fatalf("resident = %d, want 5", cache.Shared().ResidentBlocks())
	}
	wantResident := map[[2]int]bool{
		{0, 0}: true, {1, 0}: true,
		{0, 1}: true, {1, 1}: true,
		{0, 2}: true, {1, 2}: false,
		{0, 3}: false, {1, 3}: false,
	}
	for key, want := range wantResident {
		got := cache.Nappe16T(key[0], key[1]) != nil
		if got != want {
			t.Errorf("tx %d nappe %d resident = %v, want %v", key[0], key[1], got, want)
		}
	}
	// Out-of-range transmits and nappes are never resident.
	if cache.Nappe16T(2, 0) != nil || cache.Nappe16T(-1, 0) != nil || cache.Nappe16T(0, depths) != nil {
		t.Error("out-of-range keys must not be resident")
	}
}

// TestTransmitViewsShareOneBudget: every transmit's blocks live in one
// store behind one attachment — a block filled on first request for (t, id)
// is a hit for every later reader of it, and each transmit's generator runs
// once per resident block.
func TestTransmitViewsShareOneBudget(t *testing.T) {
	provs, depths := transmitProviders(t, 2)
	counting := make([]delay.BlockProvider, len(provs))
	for i, p := range provs {
		counting[i] = &countingProvider{BlockProvider: p}
	}
	cache := attach(t, Config{Providers: counting, Depths: depths, BudgetBytes: -1})
	for round := 0; round < 3; round++ {
		for tx := range counting {
			for id := 0; id < depths; id++ {
				if blk := cache.Nappe16T(tx, id); blk == nil {
					t.Fatalf("transmit %d nappe %d not resident", tx, id)
				}
			}
		}
	}
	for i, c := range counting {
		if calls := c.(*countingProvider).calls.Load(); calls != int64(depths) {
			t.Errorf("transmit %d generator ran %d times, want %d (fill-once)", i, calls, depths)
		}
	}
	st := cache.Stats()
	if st.Fills != int64(2*depths) {
		t.Errorf("fills = %d, want %d", st.Fills, 2*depths)
	}
	if st.Hits != int64(2*2*depths) {
		t.Errorf("hits = %d, want every steady-state request (%d)", st.Hits, 2*2*depths)
	}
}

// TestTransmitWarmConcurrent: Warm and concurrent per-view readers must be
// race-free and agree (run under -race in CI).
func TestTransmitWarmConcurrent(t *testing.T) {
	provs, depths := transmitProviders(t, 2)
	cache := attach(t, Config{Providers: provs, Depths: depths, BudgetBytes: -1})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); cache.Warm() }()
	for tx := 0; tx < 2; tx++ {
		go func(tx int) {
			defer wg.Done()
			for id := 0; id < depths; id++ {
				cache.Nappe16T(tx, id)
			}
		}(tx)
	}
	wg.Wait()
	if st := cache.Stats(); st.Fills != int64(2*depths) {
		t.Errorf("fills = %d after concurrent warm, want %d", st.Fills, 2*depths)
	}
}

// TestTransmitConfigValidation: mismatched layouts and nil entries fail.
func TestTransmitConfigValidation(t *testing.T) {
	provs, depths := transmitProviders(t, 2)
	if _, err := NewShared(Config{Providers: []delay.BlockProvider{provs[0], nil}, Depths: depths}); err == nil {
		t.Error("nil transmit provider must fail")
	}
	other, _ := testExact(t)
	shrunk := *other
	shrunk.Arr.NX = 2 // different layout
	if _, err := NewShared(Config{Providers: []delay.BlockProvider{provs[0], &shrunk}, Depths: depths}); err == nil {
		t.Error("layout mismatch across transmits must fail")
	}
}

// TestSharedWarmParallelMatchesSerialFirstTouch: Warm stripes the resident
// keys over GOMAXPROCS goroutines; the store it leaves must be the one a
// single goroutine first-touching every resident block leaves — same bytes,
// same fill/miss/hit counts, one fault-point call per block — at full and
// partial residency, with a live reader racing the warm (run under -race).
func TestSharedWarmParallelMatchesSerialFirstTouch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	provs, depths := transmitProviders(t, 3)
	blockBytes := int64(provs[0].Layout().BlockLen()) * narrowDelayBytes
	for _, budget := range []int64{-1, 7 * blockBytes} {
		cfg := Config{Providers: provs, Depths: depths, BudgetBytes: budget}
		warmed, err := NewShared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewShared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		quota := serial.PlanQuota()
		touch := serial.Attach()
		for tx, q := range quota {
			for id := 0; id < q; id++ {
				touch.Nappe16T(tx, id)
			}
		}

		if err := faultpoint.Activate("delaycache.fill=every:1"); err != nil {
			t.Fatal(err)
		}
		reader := warmed.Attach()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for id := 0; id < quota[0]; id++ {
				reader.Nappe16T(0, id)
			}
		}()
		warmed.Warm()
		<-done
		faultpoint.Deactivate()
		for _, ps := range faultpoint.Snapshot() {
			if ps.Name == "delaycache.fill" && ps.Calls != int64(serial.ResidentBlocks()) {
				t.Errorf("budget %d: fill fault point called %d times, want once per block (%d)",
					budget, ps.Calls, serial.ResidentBlocks())
			}
		}

		ws, ss := warmed.Stats(), serial.Stats()
		if ws.Fills != ss.Fills || ws.Misses != ss.Misses || ws.BytesResident != ss.BytesResident ||
			ws.Fills != int64(serial.ResidentBlocks()) {
			t.Errorf("budget %d: warmed %+v, serially touched %+v", budget, ws, ss)
		}
		// Every resident slot was requested by Warm and again by the reader's
		// share; exactly one request per block ran the generator.
		if want := int64(quota[0]); ws.Hits != want {
			t.Errorf("budget %d: hits = %d, want the reader's %d", budget, ws.Hits, want)
		}
		check := warmed.Attach()
		for tx, q := range quota {
			for id := 0; id < q; id++ {
				got, want := expanded(check.Nappe16T(tx, id)), expanded(touch.Nappe16T(tx, id))
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("budget %d block (%d,%d) slot %d: warmed %d != serial %d",
							budget, tx, id, i, got[i], want[i])
					}
				}
			}
			if check.Nappe16T(tx, q) != nil {
				t.Errorf("budget %d: block (%d,%d) resident outside the prefix", budget, tx, q)
			}
		}
	}
}
