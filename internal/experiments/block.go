package experiments

import (
	"fmt"
	"time"

	"ultrabeam/internal/core"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/report"
)

// BlockPathRow measures one provider on experiment B1: the software
// delay-generation rate of the scalar per-voxel×element datapath against
// the nappe-granular block datapath — both producing the int16 selection
// indices the served kernels consume — plus the bit-identity check between
// the two (which must be exactly zero).
type BlockPathRow struct {
	Provider     string
	Delays       int     // delays generated per full-volume sweep
	ScalarPerSec float64 // delays/s through Index16(DelaySamples)
	BlockPerSec  float64 // delays/s through FillNappe16
	Speedup      float64
	Mismatches   int // int16 slots where block ≠ scalar, must be 0
}

// BlockPathResult carries experiment B1 (the ISSUE 1 tentpole measurement):
// the software analogue of the paper's delays-per-second figure of merit,
// contrasting random-access scalar generation with the nappe-sweep bulk
// generation both §IV and §V architectures are built around.
type BlockPathResult struct {
	Rows []BlockPathRow
}

// BlockPath sweeps the full volume of s once per datapath for each delay
// architecture and measures the generation rate. The spec should be laptop
// scale (ReducedSpec or smaller); paper scale takes minutes on the scalar
// side — which is precisely the bottleneck the block API removes.
func BlockPath(s core.SystemSpec) BlockPathResult {
	var res BlockPathResult
	tf := s.NewTableFree()
	tf.UseFixed = true
	ts := s.NewTableSteer(18)
	ts.UseFixed = true
	for _, p := range []delay.Provider{s.NewExact(), tf, ts} {
		res.Rows = append(res.Rows, measureBlockPath(s, p))
	}
	return res
}

func measureBlockPath(s core.SystemSpec, p delay.Provider) BlockPathRow {
	vol := s.Volume()
	layout := delay.Layout{
		NTheta: vol.Theta.N, NPhi: vol.Phi.N, NX: s.ElemX, NY: s.ElemY,
	}
	bp := delay.AsBlock(p, layout)
	adapter := &delay.ScalarAdapter{P: p, L: layout} // one DelaySamples call per slot
	block := make(delay.Block16, layout.BlockLen())
	scalar := make(delay.Block16, layout.BlockLen())
	row := BlockPathRow{Provider: p.Name(), Delays: vol.Depth.N * layout.BlockLen()}

	start := time.Now()
	for id := 0; id < vol.Depth.N; id++ {
		adapter.FillNappe16(id, scalar)
	}
	row.ScalarPerSec = float64(row.Delays) / time.Since(start).Seconds()

	start = time.Now()
	for id := 0; id < vol.Depth.N; id++ {
		bp.FillNappe16(id, block)
	}
	row.BlockPerSec = float64(row.Delays) / time.Since(start).Seconds()
	row.Speedup = row.BlockPerSec / row.ScalarPerSec

	// The timing loops overwrite the buffers per nappe; re-fill the last
	// nappe on both paths for the equivalence column.
	last := vol.Depth.N - 1
	bp.FillNappe16(last, block)
	adapter.FillNappe16(last, scalar)
	for k := range block {
		if block[k] != scalar[k] {
			row.Mismatches++
		}
	}
	return row
}

// Table renders B1.
func (r BlockPathResult) Table() *report.Table {
	t := report.NewTable("B1 — block vs scalar delay generation (software datapath)",
		"provider", "delays/sweep", "scalar rate", "block rate", "speedup", "differing slots")
	for _, row := range r.Rows {
		t.Add(row.Provider,
			report.Eng(float64(row.Delays)),
			report.Eng(row.ScalarPerSec)+"/s",
			report.Eng(row.BlockPerSec)+"/s",
			fmt.Sprintf("%.1f×", row.Speedup),
			fmt.Sprintf("%d", row.Mismatches))
	}
	return t
}
