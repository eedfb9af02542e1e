//go:build purego || !amd64

package tablefree

// hostRoutes lists the one route this build has: fixedRow.
func hostRoutes() []route { return []route{{name: "ref"}} }

// use has no probe to set on this build.
func (route) use() (restore func()) { return func() {} }
