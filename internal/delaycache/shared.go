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
//     by the wrapped provider and every attachment reads the same bytes, so
//     volumes beamformed through a shared store are bit-identical to solo
//     runs at every budget.
//   - Deterministic prefix: the resident set is a pure function of geometry
//     and budget — the interleaved (nappe, transmit) prefix — never of
//     which attachment touched a block first.
//
// Evict drops every filled block in one pointer swap: the store installs a
// fresh generation of empty slots and the old blocks die with their last
// in-flight reader. Because residency is the deterministic prefix, a
// post-eviction rewarm refills exactly the same blocks with exactly the
// same bytes — eviction affects warm-up latency, never results — which is
// what makes TTL eviction of idle geometries safe for a serving pool (and
// what BenchmarkEvictionRewarm in the serve package measures).
package delaycache

import (
	"errors"
	"fmt"
	"runtime"
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
// view; a store with a single attachment behaves exactly like the PR-2
// private cache (New composes the two).
type Shared struct {
	inners    []delay.BlockProvider   // one generator per transmit
	inners16  []delay.BlockProvider16 // nil entries where no native narrow fill exists
	steers    []delay.SteerSource     // nil entries where the generator offers no fused operands
	layout    delay.Layout
	depths    int
	budget    int64
	wide      bool
	nResident int // blocks the budget retains

	// gen is the current block generation; Evict swaps in a fresh one.
	// In-flight readers of the old generation still see filled, valid
	// blocks — eviction never invalidates data an accumulate loop holds.
	gen atomic.Pointer[generation]

	// scratch pools float64 buffers for quantizing fills of providers
	// without a native narrow path (and for wide-store narrow reads).
	scratch sync.Pool

	// Aggregate counters across every attachment.
	hits      atomic.Int64
	misses    atomic.Int64
	fills     atomic.Int64
	evictions atomic.Int64
	attached  atomic.Int64

	// onEvict, when set, observes each Evict with the pre-eviction stats.
	onEvict func(Stats)
}

// generation is one eviction epoch of the store: the block slots, the
// residency plan that lays them out, and the count of slots filled so far
// (the live resident footprint — the aggregate fills counter keeps counting
// across evictions). Keeping the plan inside the generation makes Plan a
// single atomic swap: every reader resolves quota, offsets and slots from
// one consistent snapshot.
type generation struct {
	blocks []block
	quota  []int // quota[t] shallowest nappes of transmit t are resident
	offset []int // slot of (t, id): offset[t] + id
	fills  atomic.Int64
}

// newGeneration lays out empty block slots for a residency plan.
func newGeneration(quota []int) *generation {
	offset := make([]int, len(quota))
	total := 0
	for t, q := range quota {
		offset[t] = total
		total += q
	}
	return &generation{blocks: make([]block, total), quota: quota, offset: offset}
}

// NewShared builds a sharable block store over cfg.Provider (or the
// cfg.Providers transmit set). The resident block count is
// min(Depths·Transmits, BudgetBytes/BlockBytes); see the package comment
// for the partial-residency policy.
func NewShared(cfg Config) (*Shared, error) {
	inners := cfg.Providers
	if len(inners) == 0 {
		if cfg.Provider == nil {
			return nil, errors.New("delaycache: nil provider")
		}
		inners = []delay.BlockProvider{cfg.Provider}
	}
	l := inners[0].Layout()
	if !l.Valid() {
		return nil, fmt.Errorf("delaycache: invalid layout %v", l)
	}
	for t, p := range inners {
		if p == nil {
			return nil, fmt.Errorf("delaycache: nil provider for transmit %d", t)
		}
		if p.Layout() != l {
			return nil, fmt.Errorf("delaycache: transmit %d layout %v differs from %v",
				t, p.Layout(), l)
		}
	}
	if cfg.Depths <= 0 {
		return nil, fmt.Errorf("delaycache: non-positive depth count %d", cfg.Depths)
	}
	s := &Shared{inners: inners, inners16: make([]delay.BlockProvider16, len(inners)),
		steers: make([]delay.SteerSource, len(inners)),
		layout: l, depths: cfg.Depths, budget: cfg.BudgetBytes, wide: cfg.Wide}
	for t, p := range inners {
		if n, ok := p.(delay.BlockProvider16); ok {
			s.inners16[t] = n
		}
		if n, ok := p.(delay.SteerSource); ok {
			s.steers[t] = n
		}
	}
	s.scratch.New = func() any { sl := make([]float64, l.BlockLen()); return &sl }
	total := cfg.Depths * len(inners)
	s.nResident = total
	if cfg.BudgetBytes >= 0 {
		s.nResident = int(cfg.BudgetBytes / s.BlockBytes())
		if s.nResident > total {
			s.nResident = total
		}
	}
	s.gen.Store(newGeneration(PlanUniform(s.nResident, len(inners), cfg.Depths)))
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

// OnEvict installs fn as the eviction observer: each Evict calls it
// synchronously with the stats snapshot taken just before the blocks drop.
// Install the hook before the store is shared; it is not synchronized
// against concurrent Evict calls.
func (s *Shared) OnEvict(fn func(Stats)) { s.onEvict = fn }

// Evict drops every filled block by installing a fresh generation of empty
// slots. Readers holding blocks of the old generation keep valid data; new
// requests refill lazily, and — residency being the deterministic prefix —
// refill produces bit-identical blocks, so eviction only ever costs
// regeneration time. The serving pool calls this when a geometry has been
// idle past its TTL.
func (s *Shared) Evict() {
	if s.onEvict != nil {
		s.onEvict(s.Stats())
	}
	s.gen.Store(newGeneration(s.gen.Load().quota))
	s.evictions.Add(1)
}

// PlanUniform is the default residency plan: the interleaved (nappe,
// transmit) prefix expressed as per-transmit quotas — quota[t] counts the
// keys id·T+t below resident, i.e. all transmits of nappe 0, then nappe 1,
// ... — so a store that never calls Plan retains exactly the set the PR-4/5
// interleaved-prefix policy retained.
func PlanUniform(resident, transmits, depths int) []int {
	quota := make([]int, max(transmits, 0))
	if transmits <= 0 {
		return quota
	}
	if resident > depths*transmits {
		resident = depths * transmits
	}
	for t := range quota {
		if resident > t {
			quota[t] = (resident - t + transmits - 1) / transmits
		}
	}
	return quota
}

// PlanWeighted distributes resident blocks across transmits proportionally
// to non-negative weights (largest-remainder rounding, each quota capped at
// depths, leftovers reassigned to uncapped transmits). The scheduler feeds
// it per-transmit demand — frame cadence per transmit — so a skewed
// compound workload keeps its hot transmits resident instead of diluting
// the budget 1/N across all of them; uniform weights reproduce PlanUniform.
func PlanWeighted(resident, depths int, weights []float64) []int {
	n := len(weights)
	quota := make([]int, n)
	if n == 0 || resident <= 0 {
		return quota
	}
	if resident > depths*n {
		resident = depths * n
	}
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return PlanUniform(resident, n, depths)
	}
	rem := make([]float64, n)
	total := 0
	for t, w := range weights {
		if w < 0 {
			w = 0
		}
		share := float64(resident) * w / sum
		q := int(share)
		if q > depths {
			q = depths
		}
		quota[t] = q
		total += q
		rem[t] = share - float64(q)
	}
	for total < resident {
		best, bi := -2.0, -1
		for t := range quota {
			if quota[t] < depths && rem[t] > best {
				best, bi = rem[t], t
			}
		}
		if bi < 0 {
			break
		}
		quota[bi]++
		rem[bi] = -1
		total++
	}
	return quota
}

// Plan installs a per-transmit residency plan: quota[t] of transmit t's
// shallowest nappe blocks stay resident. The plan reshapes which blocks the
// budget retains, never their bytes — a block outside the plan regenerates
// bit-identically on demand — so results are plan-invariant; only the
// hit/miss split moves. Quotas must fit the store: one entry per transmit,
// each within [0, Depths], summing to at most the budget's block count.
// Installing a plan equal to the current one is a no-op; otherwise the
// current generation (and any filled blocks) is dropped, exactly as Evict
// drops it, and refills happen lazily under the new layout. The serving
// scheduler computes plans from per-transmit frame cadence (PlanWeighted)
// when it warms a geometry.
func (s *Shared) Plan(quota []int) error {
	if len(quota) != len(s.inners) {
		return fmt.Errorf("delaycache: plan has %d quotas for %d transmits", len(quota), len(s.inners))
	}
	total := 0
	for t, q := range quota {
		if q < 0 || q > s.depths {
			return fmt.Errorf("delaycache: transmit %d quota %d outside [0, %d]", t, q, s.depths)
		}
		total += q
	}
	if total > s.nResident {
		return fmt.Errorf("delaycache: plan retains %d blocks over the budget's %d", total, s.nResident)
	}
	cur := s.gen.Load()
	same := len(cur.quota) == len(quota)
	for t := 0; same && t < len(quota); t++ {
		same = cur.quota[t] == quota[t]
	}
	if same {
		return nil
	}
	s.gen.Store(newGeneration(append([]int(nil), quota...)))
	return nil
}

// PlanQuota returns a copy of the residency plan currently in force.
func (s *Shared) PlanQuota() []int {
	return append([]int(nil), s.gen.Load().quota...)
}

// DelayBytes returns the storage cost of one cached delay value.
func (s *Shared) DelayBytes() int64 {
	if s.wide {
		return wideDelayBytes
	}
	return narrowDelayBytes
}

// BlockBytes returns the storage cost of one resident nappe block.
func (s *Shared) BlockBytes() int64 { return int64(s.layout.BlockLen()) * s.DelayBytes() }

// ResidentBlocks returns how many blocks the budget retains (k of
// Depths·Transmits).
func (s *Shared) ResidentBlocks() int { return s.nResident }

// FullResidency reports whether every (transmit, nappe) block is retained.
func (s *Shared) FullResidency() bool { return s.nResident == s.depths*len(s.inners) }

// Wide reports whether the store holds float64 blocks (A/B mode).
func (s *Shared) Wide() bool { return s.wide }

// Transmits returns the transmit-set size the store serves.
func (s *Shared) Transmits() int { return len(s.inners) }

// Depths returns the depth-nappe count of the geometry.
func (s *Shared) Depths() int { return s.depths }

// Layout returns the nappe block geometry of the store.
func (s *Shared) Layout() delay.Layout { return s.layout }

// resident returns the filled block slot for (transmit t, nappe id) in the
// current generation — running the generator under the slot's once on first
// access — or nil when the pair is outside the generation's residency plan
// (by default the interleaved prefix, PlanUniform; reshaped by Plan).
// filled reports whether this call ran the generator. Aggregate
// hit/miss/fill counters are updated here; attachments layer their own
// counters on the result.
func (s *Shared) resident(t, id int) (b *block, filled bool) {
	if t < 0 || t >= len(s.inners) || id < 0 || id >= s.depths {
		return nil, false
	}
	gen := s.gen.Load()
	if id >= gen.quota[t] {
		return nil, false
	}
	b = &gen.blocks[gen.offset[t]+id]
	b.once.Do(func() {
		// Latency-only injection: a fill has no error path (the generator
		// is deterministic math), so the chaos harness perturbs its timing
		// — every waiter on this once observes the stall — never its bytes.
		fillFault.Fire()
		if s.wide {
			data := make([]float64, s.layout.BlockLen())
			s.inners[t].FillNappe(id, data)
			b.wide = data
		} else {
			data := make(delay.Block16, s.layout.BlockLen())
			s.fill16(t, id, data)
			b.n16 = data
		}
		gen.fills.Add(1)
		filled = true
	})
	if filled {
		s.misses.Add(1)
		s.fills.Add(1)
	} else {
		s.hits.Add(1)
	}
	return b, filled
}

// fill16 regenerates the quantized block of (t, id) through delay.Fill16,
// borrowing a pooled scratch only when the provider lacks a native narrow
// fill.
func (s *Shared) fill16(t, id int, dst delay.Block16) {
	if n := s.inners16[t]; n != nil {
		n.FillNappe16(id, dst)
		return
	}
	sc := s.scratch.Get().(*[]float64)
	delay.Fill16(s.inners[t], id, dst, *sc)
	s.scratch.Put(sc)
}

// Warm fills every resident block of the current generation eagerly
// (attachment counters are untouched; the serving pool warms a store once
// before handing out sessions). The (transmit, nappe) plan is striped over
// min(GOMAXPROCS, blocks) goroutines: every block is its own sync.Once, so
// the fills are independent, and a live session touching a block meanwhile
// just takes that once first.
func (s *Shared) Warm() {
	gen := s.gen.Load()
	workers := min(runtime.GOMAXPROCS(0), len(gen.blocks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := 0
			for t, q := range gen.quota {
				for id := 0; id < q; id++ {
					if k%workers == w {
						s.resident(t, id)
					}
					k++
				}
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
		TotalBlocks:    s.depths * len(s.inners),
		Transmits:      len(s.inners),
		DelayBytes:     s.DelayBytes(),
		BlockBytes:     s.BlockBytes(),
		BytesResident:  s.gen.Load().fills.Load() * s.BlockBytes(),
		BudgetBytes:    s.budget,
	}
}
