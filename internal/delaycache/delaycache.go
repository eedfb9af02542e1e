// Package delaycache retains filled nappe delay blocks across frames under
// a configurable byte budget — the software form of the paper's §V-B
// observation that "the on-FPGA delay table could be a cache of a complete
// delay table residing off-chip". Delays depend only on geometry, so in a
// cine sequence every frame would regenerate identical nappe blocks; the
// cache pays generation once and serves every later frame from memory.
//
// Generators fill delay.Block16 selection indices at 2 bytes per delay —
// the same information the beamformer consumes, at a quarter of the float64
// footprint, mirroring the paper's point that delay words are 14-bit
// quantities (§V-B). Narrowing is exact (delay.Index16), and it means a
// fixed byte budget retains 4× the nappe blocks the float64 representation
// held. The budget is counted in those raw int16 blocks (BlockBytes); on a
// host with the AVX-512 tile bodies the store then keeps each block in the
// tile-native form (Native, native.go) they read, ≈ 1.19 B per delay, and
// Stats.BytesResident reports the bytes it actually holds.
//
// Residency is deterministic: with budget for k of the volume's Depth.N
// blocks, nappes 0..k-1 are retained and deeper nappes always regenerate.
// The resident set is a pure function of geometry and budget — never of
// access order — so concurrent multi-worker frames are reproducible, and
// the retained prefix mirrors the §V-B circular-buffer window that keeps
// the shallowest not-yet-consumed slices on chip. Blocks fill lazily on
// first access (frame 1 warms the cache) and are bit-identical to the
// generator's fills by construction: the cache stores exactly what the
// generator produced and never recomputes.
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
// A Cache sits next to the delay generators, not in front of them: a
// consumer asks it for the resident block of (transmit, nappe) and, when
// it holds none, runs the transmit's generator itself (Shared.Generators).
// NewShared + Attach is the one way to build one: a private cache is a
// fresh store with exactly one attachment, and the serving form attaches N
// sessions of one probe geometry so they pay one delay budget between them.
package delaycache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/memmodel"
)

// Per-delay storage cost of a resident block, and of the float64 delay the
// §V-B bank budget was sized in.
const (
	narrowDelayBytes = 2 // delay.Block16 selection index
	wideDelayBytes   = 8 // float64 fractional delay
)

// Config assembles a Shared store.
type Config struct {
	// Providers supplies one block generator per transmit of a compounding
	// set (a single entry for one insonification): blocks are keyed by
	// (transmit, nappe) and the byte budget is shared across the set. All
	// entries must share one Layout, which fixes the block geometry.
	Providers []delay.BlockProvider
	// Depths is the number of depth nappes (valid fill ids are
	// 0..Depths-1), normally Volume.Depth.N.
	Depths int
	// BudgetBytes caps resident storage. Negative means unlimited (full
	// residency); zero retains nothing (every request is a miss).
	BudgetBytes int64
}

// Cache is one consumer's attachment to a Shared block store: it serves
// the resident quantized block of (transmit, nappe), filling it into the
// store on first access, and its Stats count only this attachment's
// traffic. It is safe for concurrent use: distinct blocks fill
// independently and a block is generated exactly once (sync.Once per block
// in the store), with later readers — on any attachment — served the
// retained data.
type Cache struct {
	s *Shared

	hits   atomic.Int64
	misses atomic.Int64
}

type block struct {
	once sync.Once
	nat  *Native
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
// done so Stats.Attachments stays truthful). Detach is not idempotent.
func (c *Cache) Detach() { c.s.attached.Add(-1) }

// Nappe16T returns the retained block of (transmit t, nappe id) in its
// tile-native form, generating and converting it on first access, or nil
// when the block is not resident. A nil result for a pair in range counts
// one miss — the caller runs the generator instead — and out-of-range pairs
// count nothing. Callers must treat the returned block as read-only;
// consuming it directly (as the beamform session does) skips both
// generation and any copy.
func (c *Cache) Nappe16T(t, id int) *Native {
	b, miss := c.s.resident(t, id)
	if miss {
		c.misses.Add(1)
	} else if b != nil {
		c.hits.Add(1)
	}
	if b == nil {
		return nil
	}
	return b.nat
}

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
	DelayBytes     int64 `json:"delay_bytes"`     // budget bytes per delay: a raw int16 word
	BlockBytes     int64 `json:"block_bytes"`     // budget bytes per block: its raw int16 size
	BytesResident  int64 `json:"bytes_resident"`  // bytes the current generation's blocks hold, tile-native
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
	return fmt.Sprintf("%d/%d blocks resident (%.1f MB held, budgeted at %dB/delay), %d hits / %d misses (%.1f%% hit rate)",
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
	n := len(c.s.gens)
	for key := 0; key < c.s.nResident; key++ {
		c.Nappe16T(key%n, key/n)
	}
}
