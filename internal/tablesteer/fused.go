package tablesteer

import (
	"math"
	"sync"

	"ultrabeam/internal/delay"
)

// fusedOps is the fused accumulate's shared operand set (delay.SteerOperands):
// built once per correction set on first demand — a provider no session
// consumes, like the Table I accuracy sweeps', never pays its NY-fold tiled
// copy of the x table — and shared by every derived transmit, as Corr is.
type fusedOps struct {
	once sync.Once
	ops  *delay.SteerOperands
}

// SteerOperands implements delay.SteerSource: the tiled x corrections and
// the rounding constants steerRow uses, or nil off the proven fixed
// datapath — the float path and the int64 clampedRow formats fill blocks.
func (p *Provider) SteerOperands() *delay.SteerOperands {
	if !p.UseFixed || p.narrow == nil {
		return nil
	}
	p.fused.once.Do(func() { p.fused.ops = tileOperands(p.narrow, p.Corr) })
	return p.fused.ops
}

// tileOperands lays each steering direction's aligned x row out NY times,
// once per element row, and records where voxel (θ, φ)'s row starts.
// Offsets are int32 like every other kernel operand; a table whose rows
// cannot be addressed so gets no fused route.
func tileOperands(o *operands[int32], c *CorrTables) *delay.SteerOperands {
	nE := c.NX * c.NY
	dirs := c.NTheta * c.PhiFolded
	if int64(dirs)*int64(nE) > math.MaxInt32 {
		return nil
	}
	s := &delay.SteerOperands{
		Frac: uint32(o.frac), Half: 1 << (o.frac - 1),
		XT:   make([]int32, dirs*nE),
		XOff: make([]int32, c.NTheta*c.NPhi),
	}
	for r := 0; r < dirs; r++ {
		x := o.x[r*c.NX:][:c.NX]
		for ej := 0; ej < c.NY; ej++ {
			copy(s.XT[(r*c.NY+ej)*c.NX:], x)
		}
	}
	for it := 0; it < c.NTheta; it++ {
		for ip := 0; ip < c.NPhi; ip++ {
			s.XOff[it*c.NPhi+ip] = int32(c.xRow(it, ip) * c.NY)
		}
	}
	return s
}

// SteerRows implements delay.SteerSource: the per-nappe half of the fused
// operands, the depth's folded reference unfolded into ry's last row and then
// every φ's y word added to it — (ref + y) + x instead of steerRow's
// (ref + x) + y, the same int32 sum because the adds cannot overflow.
func (p *Provider) SteerRows(id int, ry []int32) {
	l, o := p.Layout(), p.narrow
	nE := l.VoxelStride()
	ry = ry[:(l.NPhi+1)*nE]
	ref := unfold(ry[l.NPhi*nE:], o.ref, id, l)
	for ip := 0; ip < l.NPhi; ip++ {
		for ej := 0; ej < l.NY; ej++ {
			y := o.y[ip*l.NY+ej]
			row := ry[ip*nE+ej*l.NX:][:l.NX]
			for ei, r := range ref[ej*l.NX:][:l.NX] {
				row[ei] = r + y
			}
		}
	}
}
