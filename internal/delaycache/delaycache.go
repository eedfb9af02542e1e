// Package delaycache retains filled nappe delay blocks across frames under
// a configurable byte budget — the software form of the paper's §V-B
// observation that "the on-FPGA delay table could be a cache of a complete
// delay table residing off-chip". Delays depend only on geometry, so in a
// cine sequence every frame would regenerate identical nappe blocks; the
// cache pays generation once and serves every later frame from memory.
//
// Blocks are stored narrow by default: delay.Block16 selection indices at
// 2 bytes per delay — the same information the beamformer consumes, at a
// quarter of the float64 footprint, mirroring the paper's point that delay
// words are 14-bit quantities (§V-B). Narrowing is exact (delay.Index16),
// and it means a fixed byte budget retains 4× the nappe blocks the float64
// representation held. Config.Wide restores float64 storage for A/B
// comparisons against the wide datapath.
//
// Residency is deterministic: with budget for k of the volume's Depth.N
// blocks, nappes 0..k-1 are retained and deeper nappes always regenerate.
// The resident set is a pure function of geometry and budget — never of
// access order — so concurrent multi-worker frames are reproducible, and
// the retained prefix mirrors the §V-B circular-buffer window that keeps
// the shallowest not-yet-consumed slices on chip. Blocks fill lazily on
// first access (frame 1 warms the cache) and are bit-identical to the
// wrapped provider's fills by construction: the cache stores exactly what
// the provider produced and never recomputes.
//
// Multi-transmit compounding multiplies the working set by the transmit
// count: each insonification has its own delay law, so blocks are keyed by
// (transmit, nappe) and one byte budget is shared across the whole transmit
// set (Config.Providers, one block generator per transmit). The residency
// order interleaves transmits nappe-major — key id·N+t — so a partial
// budget retains the shallowest nappes of every transmit rather than all
// nappes of transmit 0: the depth prefix stays the §V-B circular-buffer
// window, now N entries wide per depth.
//
// The package splits into a block store and its consumers: Shared owns the
// blocks (one store per geometry, any number of concurrent readers — see
// shared.go) and Cache is one consumer's attachment to a store, carrying
// per-attachment hit/miss counters on top of the store's aggregate Stats.
// New builds the classic private pairing — a fresh store with exactly one
// attachment; NewShared + Attach is the serving-pool form where N sessions
// of one probe geometry pay one delay budget between them.
package delaycache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/memmodel"
)

// Per-delay storage cost of the two block representations.
const (
	narrowDelayBytes = 2 // delay.Block16 selection index
	wideDelayBytes   = 8 // float64 fractional delay
)

// Config assembles a Shared store (and, through New, a private Cache).
type Config struct {
	// Provider is the wrapped block generator; its Layout fixes the block
	// geometry. Providers implementing delay.BlockProvider16 fill narrow
	// blocks natively; plain BlockProviders are quantized through a pooled
	// float64 scratch.
	Provider delay.BlockProvider
	// Providers, when non-empty, supplies one block generator per transmit
	// of a compounding set (overriding Provider): blocks are then keyed by
	// (transmit, nappe) and the byte budget is shared across the set. All
	// entries must share one Layout. A single-entry list is equivalent to
	// Provider.
	Providers []delay.BlockProvider
	// Depths is the number of depth nappes (valid fill ids are
	// 0..Depths-1), normally Volume.Depth.N.
	Depths int
	// BudgetBytes caps resident storage. Negative means unlimited (full
	// residency); zero retains nothing (every fill is a miss).
	BudgetBytes int64
	// Wide selects float64 block storage — the pre-narrowing datapath,
	// kept for A/B benchmarks. A wide cache serves Nappe/FillNappe from
	// residency and quantizes FillNappe16 per call (Nappe16 reports
	// nothing resident: there is no int16 slice to share); a narrow cache
	// serves Nappe16/FillNappe16 from residency and delegates the float64
	// accessors to the provider (the golden path is never served from
	// quantized storage).
	Wide bool
}

// Cache is a delay.BlockProvider16 view of a Shared block store: blocks a
// consumer requests are served from (and filled into) the store, while the
// view's own Stats count only this attachment's traffic. It is safe for
// concurrent use: distinct blocks fill independently and a block is
// generated exactly once (sync.Once per block in the store), with later
// readers — on any attachment — served the retained data. The plain
// BlockProvider methods address transmit 0; the *T methods and the
// Transmit(t) views address the rest of a compounding set.
type Cache struct {
	s *Shared

	hits   atomic.Int64
	misses atomic.Int64
}

type block struct {
	once sync.Once
	n16  delay.Block16 // narrow store storage
	wide []float64     // wide store storage
}

// New builds a private store-plus-attachment over cfg.Provider (or the
// cfg.Providers transmit set) — the single-consumer cache shape. Sessions
// that should share one delay budget attach to a common NewShared store
// instead.
func New(cfg Config) (*Cache, error) {
	s, err := NewShared(cfg)
	if err != nil {
		return nil, err
	}
	return s.Attach(), nil
}

// BudgetFromBanks translates a BRAM bank array into a cache budget: the
// byte budget at which the float64-era cache retained exactly the §V-B
// resident word count (128 banks × 1k lines = 128k delays × 8 bytes). The
// design-point bytes are held fixed across representations, so narrowing
// the blocks to 2-byte words makes the same budget cover 4× the nappe
// blocks — the coverage win the paper's 14-bit delay words buy.
func BudgetFromBanks(a memmodel.BankArray) int64 {
	return int64(a.Words()) * wideDelayBytes
}

// Shared returns the block store this attachment reads.
func (c *Cache) Shared() *Shared { return c.s }

// Detach releases the attachment's claim on the store (Stats.Attachments
// bookkeeping only — the view keeps working; call it when the consumer is
// done so pool occupancy stays truthful). Detach is not idempotent.
func (c *Cache) Detach() { c.s.attached.Add(-1) }

// DelayBytes returns the storage cost of one cached delay value.
func (c *Cache) DelayBytes() int64 { return c.s.DelayBytes() }

// BlockBytes returns the storage cost of one resident nappe block.
func (c *Cache) BlockBytes() int64 { return c.s.BlockBytes() }

// ResidentBlocks returns how many blocks the budget retains (k of
// Depths·Transmits).
func (c *Cache) ResidentBlocks() int { return c.s.ResidentBlocks() }

// FullResidency reports whether every (transmit, nappe) block is retained.
func (c *Cache) FullResidency() bool { return c.s.FullResidency() }

// Wide reports whether the store holds float64 blocks (A/B mode).
func (c *Cache) Wide() bool { return c.s.Wide() }

// Transmits returns the transmit-set size the store serves (1 when built
// from a single Provider).
func (c *Cache) Transmits() int { return c.s.Transmits() }

// Name implements delay.Provider.
func (c *Cache) Name() string { return "cached(" + c.s.inners[0].Name() + ")" }

// DelaySamples implements delay.Provider by forwarding to the wrapped
// transmit-0 provider — the scalar path stays the executable specification
// and is not cached.
func (c *Cache) DelaySamples(it, ip, id, ei, ej int) float64 {
	return c.s.inners[0].DelaySamples(it, ip, id, ei, ej)
}

// Layout implements delay.BlockProvider.
func (c *Cache) Layout() delay.Layout { return c.s.layout }

// miss records one generator-run request on both counter layers.
func (c *Cache) miss() { c.misses.Add(1); c.s.misses.Add(1) }

// resident fetches the block slot for (t, id) from the store, layering the
// attachment's hit/miss counters over the store's aggregate ones (a fill on
// this attachment is a miss here and everywhere; a block another attachment
// already filled is a hit).
func (c *Cache) resident(t, id int) *block {
	b, filled := c.s.resident(t, id)
	if b == nil {
		return nil
	}
	if filled {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return b
}

// FillNappe implements delay.BlockProvider for transmit 0; see FillNappeT.
func (c *Cache) FillNappe(id int, dst []float64) { c.FillNappeT(0, id, dst) }

// FillNappeT fills the float64 block of (transmit t, nappe id). A wide
// store serves resident blocks from the retained float64 data (filling on
// first access); a narrow store always delegates to the wrapped provider —
// quantized storage can not reproduce fractional delays, and the float64
// path stays golden.
func (c *Cache) FillNappeT(t, id int, dst []float64) {
	if c.s.wide {
		if blk := c.NappeT(t, id); blk != nil {
			copy(dst, blk)
			return
		}
	}
	c.miss()
	c.s.inners[t].FillNappe(id, dst)
}

// FillNappe16 implements delay.BlockProvider16 for transmit 0; see
// FillNappe16T.
func (c *Cache) FillNappe16(id int, dst delay.Block16) { c.FillNappe16T(0, id, dst) }

// FillNappe16T fills the quantized block of (transmit t, nappe id):
// resident blocks are served from retained data (copied on a narrow store,
// quantized per call on a wide one — exact either way) and non-resident
// blocks regenerate through the narrowest path the provider offers. Values
// are bit-identical to an uncached quantized fill in every case.
func (c *Cache) FillNappe16T(t, id int, dst delay.Block16) {
	if c.s.wide {
		if b := c.resident(t, id); b != nil {
			delay.QuantizeNappe(dst, b.wide)
			return
		}
	} else if blk := c.Nappe16T(t, id); blk != nil {
		copy(dst, blk)
		return
	}
	c.miss()
	c.s.fill16(t, id, dst)
}

// SteerOperands implements delay.SteerSource for transmit 0.
func (c *Cache) SteerOperands() *delay.SteerOperands { return c.steerOperands(0) }

// SteerRows implements delay.SteerSource for transmit 0.
func (c *Cache) SteerRows(id int, ry []int32) { c.steerRows(0, id, ry) }

// steerOperands forwards transmit t's fused-steer operands, or nil when its
// generator offers none — the beamform session then fills blocks through
// FillNappe16T as before.
func (c *Cache) steerOperands(t int) *delay.SteerOperands {
	if src := c.s.steers[t]; src != nil {
		return src.SteerOperands()
	}
	return nil
}

// steerRows forwards the per-nappe fused operands of (transmit t, nappe
// id). A fused run is a generator run: it counts as a miss exactly as the
// FillNappe16T it replaces would have, so the hit ratio reads the same
// whichever route a non-resident nappe takes. Valid only where
// steerOperands(t) is non-nil.
func (c *Cache) steerRows(t, id int, ry []int32) {
	c.miss()
	c.s.steers[t].SteerRows(id, ry)
}

// Nappe returns the retained float64 block of nappe id for transmit 0; see
// NappeT.
func (c *Cache) Nappe(id int) []float64 { return c.NappeT(0, id) }

// NappeT returns the retained float64 block of (transmit t, nappe id) on a
// wide store, generating it on first access, or nil when the block is not
// resident or the store is narrow. Callers must treat the returned slice as
// read-only; consuming it directly (as the beamform session does) skips
// both generation and the copy FillNappeT would pay.
func (c *Cache) NappeT(t, id int) []float64 {
	if !c.s.wide {
		return nil
	}
	if b := c.resident(t, id); b != nil {
		return b.wide
	}
	return nil
}

// Nappe16 returns the retained quantized block of nappe id for transmit 0;
// see Nappe16T.
func (c *Cache) Nappe16(id int) delay.Block16 { return c.Nappe16T(0, id) }

// Nappe16T returns the retained quantized block of (transmit t, nappe id),
// generating it on first access, or nil when the block is not resident or
// the store is wide (no retained int16 slice exists to share in A/B mode —
// wide residency is served through FillNappe16T's per-call quantization, or
// NappeT). Callers must treat the returned slice as read-only.
func (c *Cache) Nappe16T(t, id int) delay.Block16 {
	if c.s.wide {
		return nil
	}
	if b := c.resident(t, id); b != nil {
		return b.n16
	}
	return nil
}

// TransmitView is the per-transmit face of a multi-transmit attachment: a
// delay.BlockProvider16 whose fills and resident-block accessors address
// one transmit of the set. The beamform session consumes one view per
// transmit, all backed by the same shared-budget block store.
type TransmitView struct {
	c *Cache
	t int
}

// Transmit returns the view addressing transmit t. It panics on an
// out-of-range index — transmit counts are fixed at construction, so a bad
// index is a programming error, not a runtime condition.
func (c *Cache) Transmit(t int) *TransmitView {
	if t < 0 || t >= len(c.s.inners) {
		panic(fmt.Sprintf("delaycache: transmit %d of %d", t, len(c.s.inners)))
	}
	return &TransmitView{c: c, t: t}
}

// Name implements delay.Provider.
func (v *TransmitView) Name() string { return "cached(" + v.c.s.inners[v.t].Name() + ")" }

// DelaySamples implements delay.Provider, forwarding to the view's wrapped
// provider (uncached, like Cache.DelaySamples).
func (v *TransmitView) DelaySamples(it, ip, id, ei, ej int) float64 {
	return v.c.s.inners[v.t].DelaySamples(it, ip, id, ei, ej)
}

// Layout implements delay.BlockProvider.
func (v *TransmitView) Layout() delay.Layout { return v.c.s.layout }

// FillNappe implements delay.BlockProvider for the view's transmit.
func (v *TransmitView) FillNappe(id int, dst []float64) { v.c.FillNappeT(v.t, id, dst) }

// FillNappe16 implements delay.BlockProvider16 for the view's transmit.
func (v *TransmitView) FillNappe16(id int, dst delay.Block16) { v.c.FillNappe16T(v.t, id, dst) }

// Nappe exposes the retained float64 block (beamform.NappeSource).
func (v *TransmitView) Nappe(id int) []float64 { return v.c.NappeT(v.t, id) }

// Nappe16 exposes the retained quantized block (beamform.NappeSource16).
func (v *TransmitView) Nappe16(id int) delay.Block16 { return v.c.Nappe16T(v.t, id) }

// SteerOperands implements delay.SteerSource for the view's transmit.
func (v *TransmitView) SteerOperands() *delay.SteerOperands { return v.c.steerOperands(v.t) }

// SteerRows implements delay.SteerSource for the view's transmit (a miss).
func (v *TransmitView) SteerRows(id int, ry []int32) { v.c.steerRows(v.t, id, ry) }

// Stats snapshots the attachment the view belongs to (beamform's
// CacheStatsSource — a session holding only transmit views can still report
// cache effectiveness).
func (v *TransmitView) Stats() Stats { return v.c.Stats() }

// Stats is a point-in-time snapshot of cache effectiveness. A Shared store
// reports aggregate traffic across every attachment; a Cache reports its
// own attachment's Hits/Misses over the store's shared residency fields.
type Stats struct {
	Hits   int64 `json:"hits"`   // block requests served from retained memory
	Misses int64 `json:"misses"` // block requests that ran the generator
	Fills  int64 `json:"fills"`  // misses that populated a resident block (cumulative across evictions)

	Evictions   int64 `json:"evictions"`   // generations dropped by Shared.Evict
	Attachments int   `json:"attachments"` // views currently attached to the store

	ResidentBlocks int   `json:"resident_blocks"` // blocks the budget retains
	TotalBlocks    int   `json:"total_blocks"`    // Depths·Transmits — blocks a full table would need
	Transmits      int   `json:"transmits"`       // transmit-set size sharing the budget
	DelayBytes     int64 `json:"delay_bytes"`     // bytes per cached delay word (2 narrow, 8 wide)
	BlockBytes     int64 `json:"block_bytes"`     // bytes per block
	BytesResident  int64 `json:"bytes_resident"`  // bytes filled in the current generation
	BudgetBytes    int64 `json:"budget_bytes"`    // configured budget (<0 = unlimited)
}

// HitRate returns Hits/(Hits+Misses), 0 when nothing was requested.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String renders the snapshot for logs and CLI reports.
func (s Stats) String() string {
	return fmt.Sprintf("%d/%d blocks resident (%.1f MB @ %dB/delay), %d hits / %d misses (%.1f%% hit rate)",
		s.ResidentBlocks, s.TotalBlocks, float64(s.BytesResident)/1e6, s.DelayBytes,
		s.Hits, s.Misses, 100*s.HitRate())
}

// Stats returns this attachment's snapshot: per-attachment hit/miss
// counters over the store's residency and lifecycle fields (each counter is
// individually atomic; the set is not a transaction).
func (c *Cache) Stats() Stats {
	st := c.s.Stats()
	st.Hits = c.hits.Load()
	st.Misses = c.misses.Load()
	return st
}

// Warm fills every resident block eagerly through this attachment (frame 0
// of a cine does this implicitly; Warm lets benchmarks separate warm-up
// from steady state).
func (c *Cache) Warm() {
	n := len(c.s.inners)
	for key := 0; key < c.s.nResident; key++ {
		c.resident(key%n, key/n)
	}
}
