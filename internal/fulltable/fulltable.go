// Package fulltable quantifies the §II baseline the paper argues against: a
// fully precomputed delay table with one entry per (focal point, element)
// pair. At Table I scale that is ≈164×10⁹ coefficients needing ≈2.5×10¹²
// accesses/s at 15 fps — the infeasibility that motivates both TABLEFREE
// and TABLESTEER. The package reports those demands analytically at any
// scale (the storage experiment's naive-table row); the table itself is
// never materialized, and the exact law (delay.Exact) stands in wherever a
// zero-algorithmic-error baseline is needed.
package fulltable

import "fmt"

// Analytics reports the storage and bandwidth demands of the naive table.
type Analytics struct {
	Points   int
	Elements int
	WordBits int
	FPS      float64
}

// Entries returns the coefficient count (points × elements).
func (a Analytics) Entries() float64 { return float64(a.Points) * float64(a.Elements) }

// StorageBytes returns the table size in bytes.
func (a Analytics) StorageBytes() float64 { return a.Entries() * float64(a.WordBits) / 8 }

// AccessesPerSecond returns the delay-value fetch rate at the target frame
// rate (§II-C: every coefficient once per frame).
func (a Analytics) AccessesPerSecond() float64 { return a.Entries() * a.FPS }

// BandwidthBytesPerSec returns the raw off-chip bandwidth at the frame rate.
func (a Analytics) BandwidthBytesPerSec() float64 { return a.StorageBytes() * a.FPS }

// String summarizes the infeasibility argument.
func (a Analytics) String() string {
	return fmt.Sprintf("naive table: %.3g entries (%.1f GB @ %d bit), %.3g accesses/s @ %.0f fps",
		a.Entries(), a.StorageBytes()/1e9, a.WordBits, a.AccessesPerSecond(), a.FPS)
}

// PaperAnalytics returns the Table I-scale baseline: 128×128×1000 points,
// 100×100 elements, 13-bit entries, 15 fps.
func PaperAnalytics() Analytics {
	return Analytics{Points: 128 * 128 * 1000, Elements: 100 * 100, WordBits: 13, FPS: 15}
}
