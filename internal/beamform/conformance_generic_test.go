//go:build purego || !amd64

package beamform

// hostRoutes lists the one route this build has: the reference.
func hostRoutes() []route { return []route{{name: "ref", f64: "ref"}} }

// use has no probe to set on this build.
func (route) use() (restore func()) { return func() {} }
