// Shared is the block store half of the package: the sync.Once-filled
// (transmit, nappe) blocks under one byte budget, split from the
// per-consumer Cache views so that many concurrent sessions of the same
// geometry can attach to one store and pay the delay budget once. Delays
// depend only on geometry, so N cine streams of one probe need one table —
// the serving-frontend form of the paper's amortization argument: the §V-B
// cache does not belong to a frame sequence, it belongs to the geometry.
//
// The store keeps both contracts of the single-consumer cache:
//
//   - Bit-identity: a block is generated exactly once (sync.Once per slot)
//     by its transmit's generator and every attachment reads the same
//     bytes, so volumes beamformed through a shared store are bit-identical
//     to solo runs at every budget.
//   - Deterministic prefix: the resident set is a pure function of geometry
//     and budget — the interleaved (nappe, transmit) prefix — never of
//     which attachment touched a block first.
//
// Evict drops every filled block in one pointer swap: the store installs a
// fresh generation of empty slots and the old blocks die with their last
// in-flight reader. Because residency is the deterministic prefix, a
// post-eviction rewarm refills exactly the same blocks with exactly the
// same bytes — eviction affects warm-up latency, never results — which is
// what makes TTL eviction of idle geometries safe for the serving
// scheduler.
package delaycache

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/faultpoint"
)

// fillFault stalls a block fill under a chaos schedule (arm it with a
// :sleep= spec) — the slow-fill timing case for everything serialized
// behind the fill's sync.Once.
var fillFault = faultpoint.New("delaycache.fill")

// Shared is the geometry-keyed block store many Cache attachments read
// concurrently. Build one with NewShared and hand each consumer an Attach()
// view; a store with a single attachment is a private cache.
type Shared struct {
	gens      []delay.BlockProvider // one generator per transmit
	layout    delay.Layout
	tiles     []int32   // layout.SnakeTiles(), the walk every resident block is stored in
	raw       sync.Pool // *delay.Block16 a fill generates into before its conversion
	depths    int
	budget    int64
	nResident int // blocks the budget retains

	// gen is the current block generation; Evict swaps in a fresh one.
	// In-flight readers of the old generation still see filled, valid
	// blocks — eviction never invalidates data an accumulate loop holds.
	gen atomic.Pointer[generation]

	// Aggregate counters across every attachment.
	hits      atomic.Int64
	misses    atomic.Int64
	fills     atomic.Int64
	evictions atomic.Int64
	attached  atomic.Int64
}

// generation is one eviction epoch of the store: the resident block slots,
// slot key id·T+t for every key below the budget's block count, the count
// of slots filled so far and the bytes they hold (the live resident
// footprint — the aggregate fills counter keeps counting across evictions).
type generation struct {
	blocks []block
	fills  atomic.Int64
	bytes  atomic.Int64
}

// NewShared builds a sharable block store over the cfg.Providers transmit
// set. The resident block count is min(Depths·Transmits,
// BudgetBytes/BlockBytes); see the package comment for the
// partial-residency policy.
func NewShared(cfg Config) (*Shared, error) {
	gens := cfg.Providers
	if len(gens) == 0 {
		return nil, errors.New("delaycache: no providers")
	}
	for t, p := range gens {
		if p == nil {
			return nil, fmt.Errorf("delaycache: nil provider for transmit %d", t)
		}
	}
	l := gens[0].Layout()
	if !l.Valid() {
		return nil, fmt.Errorf("delaycache: invalid layout %v", l)
	}
	for t, p := range gens {
		if p.Layout() != l {
			return nil, fmt.Errorf("delaycache: transmit %d layout %v differs from %v",
				t, p.Layout(), l)
		}
	}
	if cfg.Depths <= 0 {
		return nil, fmt.Errorf("delaycache: non-positive depth count %d", cfg.Depths)
	}
	s := &Shared{gens: gens, layout: l, tiles: l.SnakeTiles(), depths: cfg.Depths, budget: cfg.BudgetBytes}
	total := cfg.Depths * len(gens)
	s.nResident = total
	if cfg.BudgetBytes >= 0 {
		s.nResident = int(cfg.BudgetBytes / s.BlockBytes())
		if s.nResident > total {
			s.nResident = total
		}
	}
	s.gen.Store(&generation{blocks: make([]block, s.nResident)})
	return s, nil
}

// Attach returns a new per-consumer view of the store: a Cache whose Stats
// count only this attachment's traffic while its blocks come from (and fill
// into) the shared store. Detach the view when its consumer is done so
// Stats.Attachments stays meaningful.
func (s *Shared) Attach() *Cache {
	s.attached.Add(1)
	return &Cache{s: s}
}

// Attachments returns the number of currently attached views.
func (s *Shared) Attachments() int { return int(s.attached.Load()) }

// Evict drops every filled block by installing a fresh generation of empty
// slots. Readers holding blocks of the old generation keep valid data; new
// requests refill lazily, and — residency being the deterministic prefix —
// refill produces bit-identical blocks, so eviction only ever costs
// regeneration time. The serving scheduler calls this when a geometry has
// been idle past its TTL.
func (s *Shared) Evict() {
	s.gen.Store(&generation{blocks: make([]block, s.nResident)})
	s.evictions.Add(1)
}

// PlanQuota returns, per transmit, how many of its shallowest nappes are
// resident: the keys id·T+t below ResidentBlocks, counted per transmit.
// It is a view of the one residency rule, not a setting.
func (s *Shared) PlanQuota() []int {
	n := len(s.gens)
	quota := make([]int, n)
	for t := range quota {
		quota[t] = (s.nResident - t + n - 1) / n
	}
	return quota
}

// DelayBytes returns the storage cost of one cached delay value.
func (s *Shared) DelayBytes() int64 { return narrowDelayBytes }

// BlockBytes returns the storage cost of one resident nappe block.
func (s *Shared) BlockBytes() int64 { return int64(s.layout.BlockLen()) * s.DelayBytes() }

// ResidentBlocks returns how many blocks the budget retains (k of
// Depths·Transmits).
func (s *Shared) ResidentBlocks() int { return s.nResident }

// FullResidency reports whether every (transmit, nappe) block is retained.
func (s *Shared) FullResidency() bool { return s.nResident == s.depths*len(s.gens) }

// Transmits returns the transmit-set size the store serves.
func (s *Shared) Transmits() int { return len(s.gens) }

// Generators returns a copy of the per-transmit block generators the store
// fills from — the generators a consumer runs itself for the blocks the
// store does not hold.
func (s *Shared) Generators() []delay.BlockProvider { return slices.Clone(s.gens) }

// Depths returns the depth-nappe count of the geometry.
func (s *Shared) Depths() int { return s.depths }

// Layout returns the nappe block geometry of the store.
func (s *Shared) Layout() delay.Layout { return s.layout }

// resident returns the filled block slot for (transmit t, nappe id) in the
// current generation — running the generator and, on a host with the
// tile-native bodies, the converter (NewNative) under the slot's once on
// first access — or nil when the
// pair's key id·T+t is past the resident prefix or out of range. miss reports whether the request costs a generator run:
// this call filled the slot, or the pair is in range but not resident (the
// caller regenerates it). Aggregate hit/miss/fill counters are updated
// here; attachments layer their own counters on the result.
func (s *Shared) resident(t, id int) (b *block, miss bool) {
	if t < 0 || t >= len(s.gens) || id < 0 || id >= s.depths {
		return nil, false
	}
	key := id*len(s.gens) + t
	if key >= s.nResident {
		s.misses.Add(1)
		return nil, true
	}
	gen := s.gen.Load()
	b = &gen.blocks[key]
	b.once.Do(func() {
		// Latency-only injection: a fill has no error path (the generator
		// is deterministic math), so the chaos harness perturbs its timing
		// — every waiter on this once observes the stall — never its bytes.
		fillFault.Fire()
		if tileNativeHost() {
			raw, _ := s.raw.Get().(*delay.Block16)
			if raw == nil {
				raw = new(delay.Block16)
				*raw = make(delay.Block16, s.layout.BlockLen())
			}
			s.gens[t].FillNappe16(id, *raw)
			b.nat = NewNative(s.layout, s.tiles, *raw)
			s.raw.Put(raw)
		} else {
			data := make(delay.Block16, s.layout.BlockLen())
			s.gens[t].FillNappe16(id, data)
			b.nat = newRawNative(s.layout, s.tiles, data)
		}
		gen.bytes.Add(b.nat.Bytes())
		gen.fills.Add(1)
		miss = true
	})
	if miss {
		s.misses.Add(1)
		s.fills.Add(1)
	} else {
		s.hits.Add(1)
	}
	return b, miss
}

// Warm fills every resident block of the current generation eagerly
// (attachment counters are untouched; the serving scheduler warms a
// handed-off geometry's store ahead of its traffic). The resident keys are
// striped over min(GOMAXPROCS, blocks) goroutines: every block is its own
// sync.Once, so the fills are independent, and a live session touching a
// block meanwhile just takes that once first.
func (s *Shared) Warm() {
	n := len(s.gens)
	workers := min(runtime.GOMAXPROCS(0), s.nResident)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for key := w; key < s.nResident; key += workers {
				s.resident(key%n, key/n)
			}
		}(w)
	}
	wg.Wait()
}

// Stats returns the aggregate snapshot across every attachment (each
// counter is individually atomic; the set is not a transaction).
func (s *Shared) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Fills:          s.fills.Load(),
		Evictions:      s.evictions.Load(),
		Attachments:    int(s.attached.Load()),
		ResidentBlocks: s.nResident,
		TotalBlocks:    s.depths * len(s.gens),
		Transmits:      len(s.gens),
		DelayBytes:     s.DelayBytes(),
		BlockBytes:     s.BlockBytes(),
		BytesResident:  s.gen.Load().bytes.Load(),
		BudgetBytes:    s.budget,
	}
}
