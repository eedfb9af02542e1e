package tablesteer

import (
	"fmt"
	"sync"
	"testing"

	"ultrabeam/internal/delay"
	"ultrabeam/internal/geom"
	"ultrabeam/internal/xdcr"
)

// fusedIndices evaluates the delay.SteerOperands contract — ry from
// SteerRows, then (v + Half + v>>31) >> Frac per slot — into a block laid
// out like FillNappe16's.
func fusedIndices(p *Provider, ops *delay.SteerOperands, id int, dst delay.Block16) {
	l := p.Layout()
	nE := l.VoxelStride()
	ry := make([]int32, (l.NPhi+1)*nE)
	p.SteerRows(id, ry)
	for k := 0; k < l.NTheta*l.NPhi; k++ {
		r, x := ry[k%l.NPhi*nE:][:nE], ops.XT[ops.XOff[k]:][:nE]
		for d := range r {
			v := r[d] + x[d]
			idx := (v + ops.Half + v>>31) >> ops.Frac
			if idx != int32(int16(idx)) {
				panic(fmt.Sprintf("fused index %d leaves int16", idx))
			}
			dst[k*nE+d] = int16(idx)
		}
	}
}

// TestSteerOperandsSharedAndLazy: the tiled x table is built on first
// demand — a provider no session asks never pays for it — and a derived
// transmit hands out the very same operands, as it shares Corr.
func TestSteerOperandsSharedAndLazy(t *testing.T) {
	p := blockSetup(18)
	p.UseFixed = true
	q, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: -2e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.fused.ops != nil {
		t.Fatal("tiled x table built before anyone asked for it")
	}
	ops := q.(*Provider).SteerOperands()
	if ops == nil || p.SteerOperands() != ops {
		t.Fatal("a derived transmit does not share its parent's fused operands")
	}
	c := p.Corr
	if len(ops.XT) != c.NTheta*c.PhiFolded*c.NX*c.NY || len(ops.XOff) != c.NTheta*c.NPhi {
		t.Fatalf("operand sizes XT=%d XOff=%d", len(ops.XT), len(ops.XOff))
	}
	if ops.Frac != uint32(p.narrow.frac) || ops.Half != 1<<(p.narrow.frac-1) {
		t.Fatalf("rounding constants %d/%d, steerRow uses %d", ops.Frac, ops.Half, p.narrow.frac)
	}
}

// TestSteerRowsAllocations: SteerRows unfolds into the caller's last row, so
// it allocates nothing at any aperture — including past the 256 elements
// where FillNappe16's stack slice gives way to an allocation.
func TestSteerRowsAllocations(t *testing.T) {
	for _, ap := range [][2]int{{8, 6}, {16, 16}, {17, 16}} {
		cfg := blockSetup(18).Cfg
		cfg.Arr = xdcr.NewArray(ap[0], ap[1], 0.385e-3/2)
		p := New(cfg)
		p.UseFixed = true
		ry := make([]int32, (cfg.Vol.Phi.N+1)*ap[0]*ap[1])
		if n := testing.AllocsPerRun(20, func() { p.SteerRows(3, ry) }); n != 0 {
			t.Errorf("%d×%d: SteerRows allocates %v per call", ap[0], ap[1], n)
		}
	}
}

// TestSteerOperandsConcurrentCallers: many goroutines asking one provider
// set for its operands for the first time, then building operand rows into
// distinct buffers — one tiled table, and every row equal to the serial one
// (run under -race).
func TestSteerOperandsConcurrentCallers(t *testing.T) {
	p := blockSetup(14)
	p.UseFixed = true
	dp, err := p.WithTransmit(delay.Transmit{Origin: geom.Vec3{Z: -2e-3}})
	if err != nil {
		t.Fatal(err)
	}
	provs := []*Provider{p, dp.(*Provider)}
	l := p.Layout()
	n := (l.NPhi + 1) * l.VoxelStride()
	want := make([][][]int32, len(provs))
	for i, q := range provs {
		serial := New(q.Cfg) // the same tables, its own lazily built operands
		serial.UseFixed = true
		for id := 0; id < q.Cfg.Vol.Depth.N; id++ {
			ry := make([]int32, n)
			serial.SteerRows(id, ry)
			want[i] = append(want[i], ry)
		}
	}
	var wg sync.WaitGroup
	opsSeen := make([]*delay.SteerOperands, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := provs[g%len(provs)]
			opsSeen[g] = q.SteerOperands()
			ry := make([]int32, n)
			for k := 0; k < 3*q.Cfg.Vol.Depth.N; k++ {
				id := (k + g) % q.Cfg.Vol.Depth.N
				q.SteerRows(id, ry)
				for i := range ry[:l.NPhi*l.VoxelStride()] {
					if ry[i] != want[g%len(provs)][id][i] {
						t.Errorf("goroutine %d nappe %d word %d: %d != %d", g, id, i, ry[i], want[g%len(provs)][id][i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, ops := range opsSeen {
		if ops == nil || ops != opsSeen[0] {
			t.Fatalf("goroutine %d saw operands %p, goroutine 0 %p", g, ops, opsSeen[0])
		}
	}
}
