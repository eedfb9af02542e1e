package delaycache

import "testing"

// TestPlanUniformMatchesInterleavedPrefix: the one residency rule. For every
// (resident, transmits, depths) shape, including budgets past the whole
// table, a block is resident exactly when its key id·T+t is below the
// budget's block count, PlanQuota counts those keys per transmit, and an
// eviction refills the same prefix.
func TestPlanUniformMatchesInterleavedPrefix(t *testing.T) {
	for _, tc := range []struct{ resident, transmits, depths int }{
		{0, 1, 4}, {1, 1, 4}, {4, 1, 4}, {5, 2, 4}, {8, 2, 4},
		{7, 3, 8}, {24, 3, 8}, {99, 3, 8}, {5, 4, 2},
	} {
		provs, _ := transmitProviders(t, tc.transmits)
		blockBytes := int64(provs[0].Layout().BlockLen()) * narrowDelayBytes
		store, err := NewShared(Config{Providers: provs, Depths: tc.depths,
			BudgetBytes: int64(tc.resident) * blockBytes})
		if err != nil {
			t.Fatal(err)
		}
		resident := min(tc.resident, tc.transmits*tc.depths)
		if store.ResidentBlocks() != resident {
			t.Fatalf("%+v: ResidentBlocks = %d, want %d", tc, store.ResidentBlocks(), resident)
		}
		quota := store.PlanQuota()
		if len(quota) != tc.transmits {
			t.Fatalf("%+v: %d quotas", tc, len(quota))
		}
		view := store.Attach()
		for round := 0; round < 2; round++ {
			for tx := 0; tx < tc.transmits; tx++ {
				want := 0
				for id := 0; id < tc.depths; id++ {
					in := id*tc.transmits+tx < resident
					if in {
						want++
					}
					if got := view.Nappe16T(tx, id) != nil; got != in {
						t.Errorf("%+v round %d: tx %d nappe %d resident = %v, want %v", tc, round, tx, id, got, in)
					}
				}
				if quota[tx] != want {
					t.Errorf("%+v: quota[%d] = %d, want %d", tc, tx, quota[tx], want)
				}
			}
			store.Evict()
		}
	}
}
