//go:build amd64 && !purego

package beamform

import (
	"fmt"
	"sync"
	"testing"

	"ultrabeam/internal/cpufeat"
	"ultrabeam/internal/delay"
	"ultrabeam/internal/rf"
	"ultrabeam/internal/scan"
	"ultrabeam/internal/tablefree"
	"ultrabeam/internal/tablesteer"
)

// tileCensusRow is one served block set's reading by the AVX-512 tile
// bodies: a grid, a generator and a transmit — 0 the on-axis one, 1–4 the
// axial transmits=4 set the server builds. A TABLESTEER row also reads the
// fused tile body over the same delays, computed from the steer operands.
type tileCensusRow struct {
	grid, arch string
	tx         int
	fallbacks  int    // i16 tiles handed back, over every nappe
	firstBack  int    // the first nappe that handed one back, or −1
	gathered   int    // f64 element-halves gathered, over every nappe
	halves     int    // f64 element-halves visited, over every nappe
	i16Diff    string // the first sampled voxel where the i16 body != its reference
	f64Diff    string // likewise for the f64 body
	fused      bool   // the row ran the fused steer tile body
	fusedBacks int    // fused tiles handed back, over every nappe
	fusedFirst int    // the first nappe that handed one back, or −1
	fusedDiff  string // the first sampled voxel where the fused body != the reference
}

var (
	tileCensusOnce sync.Once
	tileCensus     []tileCensusRow
	tileCensusErr  error
)

// servedTileCensus generates every nappe of the fixed TABLEFREE and the
// 18-bit fixed TABLESTEER delay blocks of both served grids, for the on-axis
// transmit and the axial transmits=4 set, once per test binary, and runs
// both tile bodies over each block: the i16 body against a guarded int16
// plane, the f64 body against float64 echo rows of the served window. Each
// TABLESTEER nappe also runs the fused tile body from its SteerRows against
// the same plane. Every ninth nappe also goes through the references. A
// census that could not be built fails every test that reads it.
func servedTileCensus(t *testing.T) []tileCensusRow {
	t.Helper()
	if !cpufeat.AVX512 {
		t.Skip("host has no AVX-512: no tile bodies")
	}
	tileCensusOnce.Do(func() {
		for _, g := range kernelBenchGrids {
			rows, err := censusGrid(g)
			if err != nil {
				tileCensusErr = fmt.Errorf("%s census: %w", g.name, err)
				return
			}
			tileCensus = append(tileCensus, rows...)
		}
	})
	if tileCensusErr != nil {
		t.Fatal(tileCensusErr)
	}
	return tileCensus
}

// censusGrid is servedTileCensus for one grid: one row per generator and
// transmit.
func censusGrid(g kernelBenchGrid) ([]tileCensusRow, error) {
	cfg := g.config()
	eng := New(cfg)
	h := &i16KernelHarness{eng: eng, win: kernelBenchWin, rng: 0x71e5}
	h.plane = make([]int16, len(eng.apod)*(kernelBenchWin+1))
	h.fillPlane(false)
	tab := eng.i16GatherTable(kernelBenchWin)
	row := make([]int32, g.nth*g.nphi)
	fh := &f64KernelHarness{eng: eng, bufs: make([]rf.EchoBuffer, len(eng.apod)), rng: 0xf64c}
	fh.fillRows(kernelBenchWin, func(int) int { return kernelBenchWin })
	layout := delay.Layout{NTheta: g.nth, NPhi: g.nphi, NX: g.nx, NY: g.ny}
	free := tablefree.New(tablefree.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: cfg.Conv})
	free.UseFixed = true // the datapath serve.ArchTableFree builds
	steer := tablesteer.New(tablesteer.Config{Vol: cfg.Vol, Arr: cfg.Arr, Conv: cfg.Conv})
	steer.UseFixed = true
	lambda := cfg.Conv.C / 4e6
	axial := delay.AxialTransmits(4, -10*lambda, -30*lambda)
	vol := func() *Volume { return &Volume{Vol: cfg.Vol, Data: make([]float64, cfg.Vol.Points())} }
	native, ref, fused, f64Native, f64Ref := vol(), vol(), vol(), vol(), vol()
	blk := make(delay.Block16, layout.BlockLen())
	ry := make([]int32, (g.nphi+1)*layout.VoxelStride())
	var rows []tileCensusRow
	for _, arch := range []struct {
		name string
		p    delay.Provider
	}{
		{"tablefree", free},
		{"tablesteer", steer},
	} {
		txs, err := delay.ForTransmits(arch.p, axial)
		if err != nil {
			return nil, err
		}
		for tx, p := range append([]delay.Provider{arch.p}, txs...) {
			gen := delay.AsBlock(p, layout)
			r := tileCensusRow{grid: g.name, arch: arch.name, tx: tx, firstBack: -1, fusedFirst: -1}
			src, _ := p.(delay.SteerSource)
			var sr *steerRoute
			if src != nil {
				if ops := src.SteerOperands(); ops != nil {
					sr = &steerRoute{src: src, ops: ops, offs: eng.steerTileOffsets(ops)}
					r.fused = true
				}
			}
			for id := 0; id < g.ndep; id++ {
				if sr != nil {
					src.SteerRows(id, ry)
					if n := eng.tileSteerRowI16(ry, sr, h.plane, tab, row); n != 0 {
						r.fusedBacks += n
						if r.fusedFirst < 0 {
							r.fusedFirst = id
						}
					}
				}
				gen.FillNappe16(id, blk)
				if n := eng.tileRowI16(blk, h.plane, tab, row); n != 0 {
					r.fallbacks += n
					if r.firstBack < 0 {
						r.firstBack = id
					}
				}
				r.gathered += eng.nappeF64(blk, fh.bufs, id, f64Native, false, true)
				r.halves += 2 * len(eng.tiles) / 16 * len(eng.activeIdx)
				if id%9 != 0 {
					continue
				}
				eng.accumulateNappe16I16(blk, h.plane, tab, id, native, 1, false, row)
				eng.accumulateNappe16I16Ref(blk, h.plane, tab, id, ref, 1, false)
				eng.accumulateNappe16Ref(blk, fh.bufs, id, f64Ref, false)
				if sr != nil {
					eng.accumulateSteerI16(ry, sr, h.plane, tab, id, fused, 1, false, row)
				}
				base := cfg.Vol.Linear(scan.Index{Depth: id}) // a nappe is contiguous
				for i := base; i < base+g.nth*g.nphi; i++ {
					if sr != nil && r.fusedDiff == "" && fused.Data[i] != ref.Data[i] {
						r.fusedDiff = fmt.Sprintf("voxel %d: fused %v != ref %v", i, fused.Data[i], ref.Data[i])
					}
					if r.i16Diff == "" && native.Data[i] != ref.Data[i] {
						r.i16Diff = fmt.Sprintf("voxel %d: native %v != ref %v", i, native.Data[i], ref.Data[i])
					}
					if r.f64Diff == "" && f64Native.Data[i] != f64Ref.Data[i] {
						r.f64Diff = fmt.Sprintf("voxel %d: native %v != ref %v", i, f64Native.Data[i], f64Ref.Data[i])
					}
				}
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// TestI16TileServedBlocks requires that the i16 tile body hands back no
// tile of any served block — both grids, TABLEFREE and TABLESTEER, the
// on-axis transmit and the axial set — that the fused steer tile body runs
// every TABLESTEER row and hands back no tile either, and that sampled
// nappes of both come out == the reference.
func TestI16TileServedBlocks(t *testing.T) {
	for _, r := range servedTileCensus(t) {
		if r.fallbacks != 0 {
			t.Fatalf("%s %s transmit %d nappe %d: %d tiles handed back over the volume", r.grid, r.arch, r.tx, r.firstBack, r.fallbacks)
		}
		if r.i16Diff != "" {
			t.Fatalf("%s %s transmit %d %s", r.grid, r.arch, r.tx, r.i16Diff)
		}
		if r.fused != (r.arch == "tablesteer") {
			t.Fatalf("%s %s transmit %d: fused steer route %t", r.grid, r.arch, r.tx, r.fused)
		}
		if r.fusedBacks != 0 {
			t.Fatalf("%s %s transmit %d nappe %d: %d fused tiles handed back over the volume", r.grid, r.arch, r.tx, r.fusedFirst, r.fusedBacks)
		}
		if r.fusedDiff != "" {
			t.Fatalf("%s %s transmit %d %s", r.grid, r.arch, r.tx, r.fusedDiff)
		}
	}
}

// TestF64TileServedBlocks requires that the f64 tile body gathers no
// element-half of the on-axis transmit's blocks on either served grid, and
// that sampled nappes of every block come out == the reference. The axial
// set's gathered share is recorded, not asserted: its transmit leg from a
// source behind the aperture widens the spans at shallow depths.
func TestF64TileServedBlocks(t *testing.T) {
	for _, r := range servedTileCensus(t) {
		if r.f64Diff != "" {
			t.Fatalf("%s %s transmit %d %s", r.grid, r.arch, r.tx, r.f64Diff)
		}
		if r.tx == 0 && r.gathered != 0 {
			t.Fatalf("%s %s on-axis transmit: %d of %d element-halves gathered", r.grid, r.arch, r.gathered, r.halves)
		}
		t.Logf("%s %s transmit %d: %d of %d element-halves gathered (%.1f %%)", r.grid, r.arch, r.tx,
			r.gathered, r.halves, 100*float64(r.gathered)/float64(r.halves))
	}
}
