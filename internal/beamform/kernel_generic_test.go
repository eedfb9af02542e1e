//go:build purego || !amd64

package beamform

// i16HostBodies lists the i16 accumulate bodies this build can run: the
// reference alone.
func i16HostBodies(e *Engine) []i16Body {
	return []i16Body{i16RefBody(e)}
}

// f64HostBodies lists the f64 accumulate bodies this build can run: the
// reference alone.
func f64HostBodies(e *Engine) []f64Body {
	return []f64Body{f64RefBody(e)}
}
