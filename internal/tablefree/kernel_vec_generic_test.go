//go:build purego || !amd64

package tablefree

// hostBodies lists the fill bodies this build can run: fixedRow alone.
func hostBodies() []string { return []string{"ref"} }

// useBody has no probe to set on this build.
func useBody(string) (restore func()) { return func() {} }
