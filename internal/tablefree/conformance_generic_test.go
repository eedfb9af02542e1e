//go:build purego || !amd64

package tablefree

// hostRoutes lists the one route this build has: fixedRow.
func hostRoutes() []route { return []route{{name: "ref"}} }

// use has no probe to set on this build.
func (route) use() (restore func()) { return func() {} }

// startAt has no lane cursor to set on this build.
func (*laneCall) startAt(int) {}

// handLanes is lanes on a batch of hand-built voxels, the transmit guard
// marked first.
func handLanes(q *Provider, plane []int16, vox []voxel, xt2, yt2 []float64, lc *laneCall) uint64 {
	return q.lanes(plane, vox, txMask(vox), xt2, yt2, lc)
}
