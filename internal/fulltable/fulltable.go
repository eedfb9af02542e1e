// Package fulltable implements the §II baseline the paper argues against: a
// fully precomputed delay table with one entry per (focal point, element)
// pair. At Table I scale that is ≈164×10⁹ coefficients needing ≈2.5×10¹²
// accesses/s at 15 fps — the infeasibility that motivates both TABLEFREE
// and TABLESTEER. The package provides exact analytics at any scale and a
// materialized table provider for scales that fit in memory, used as the
// zero-algorithmic-error baseline in accuracy and beamforming experiments.
package fulltable

import (
	"fmt"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/fixed"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/xdcr"
)

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

// Table is a fully materialized delay table (only for reduced scales; the
// constructor refuses tables above MaxEntries to avoid accidental 1.3 TB
// allocations).
type Table struct {
	Vol    scan.Volume
	Arr    xdcr.Array
	Fmt    fixed.Format
	origin geom.Vec3       // emission reference the table was built for
	conv   delay.Converter // kept so WithTransmit can rebuild
	data   []float64       // quantized-to-format values, in samples
}

// MaxEntries bounds materialized tables (~800 MB of float64).
const MaxEntries = 100_000_000

// Build materializes the exact delay table, quantizing every entry to fmt
// (use a wide format for a float-accurate baseline). It returns an error if
// the table would exceed MaxEntries.
func Build(v scan.Volume, a xdcr.Array, origin geom.Vec3, cv delay.Converter, fmtSpec fixed.Format) (*Table, error) {
	entries := v.Points() * a.Elements()
	if entries > MaxEntries {
		return nil, fmt.Errorf("fulltable: %d entries exceed the %d materialization cap",
			entries, MaxEntries)
	}
	e := delay.NewExact(v, a, origin, cv)
	t := &Table{Vol: v, Arr: a, Fmt: fmtSpec, origin: origin, conv: cv,
		data: make([]float64, entries)}
	i := 0
	v.Walk(scan.NappeOrder, func(ix scan.Index) {
		for ej := 0; ej < a.NY; ej++ {
			for ei := 0; ei < a.NX; ei++ {
				d := e.DelaySamples(ix.Theta, ix.Phi, ix.Depth, ei, ej)
				q, _ := fixed.Quantize(d, fmtSpec, fixed.RoundNearest)
				t.data[i] = q.Float()
				i++
			}
		}
	})
	return t, nil
}

// Name implements delay.Provider.
func (t *Table) Name() string { return fmt.Sprintf("fulltable-%db", t.Fmt.Bits()) }

// DelaySamples implements delay.Provider by table lookup.
func (t *Table) DelaySamples(it, ip, id, ei, ej int) float64 {
	// Nappe-major layout mirroring the Build walk order.
	point := (id*t.Vol.Theta.N+it)*t.Vol.Phi.N + ip
	return t.data[point*t.Arr.Elements()+t.Arr.Index(ei, ej)]
}

// Layout implements delay.BlockProvider.
func (t *Table) Layout() delay.Layout {
	return delay.Layout{NTheta: t.Vol.Theta.N, NPhi: t.Vol.Phi.N, NX: t.Arr.NX, NY: t.Arr.NY}
}

// nappe returns the contiguous slice of depth nappe id: the Build walk is
// nappe-major with the element plane innermost in xdcr.Array.Index order,
// which is exactly the delay.Layout block order — the materialized table IS
// a sequence of nappe blocks, the random-access problem of §II-B laid bare.
func (t *Table) nappe(id int) []float64 {
	n := t.Layout().BlockLen()
	return t.data[id*n : (id+1)*n]
}

// FillNappe16 implements delay.BlockProvider, quantizing the stored slice.
func (t *Table) FillNappe16(id int, dst delay.Block16) {
	delay.QuantizeNappe(dst, t.nappe(id))
}

// WithTransmit implements delay.TransmitProvider by materializing a second
// full table for the new emission origin — the §II baseline's cost model
// made explicit: every additional transmit multiplies the precomputed
// storage by a full table.
func (t *Table) WithTransmit(tx delay.Transmit) (delay.Provider, error) {
	return Build(t.Vol, t.Arr, tx.Origin, t.conv, t.Fmt)
}

// Entries returns the materialized entry count.
func (t *Table) Entries() int { return len(t.data) }

// StorageBits returns the footprint at the table's storage format.
func (t *Table) StorageBits() int { return len(t.data) * t.Fmt.Bits() }
