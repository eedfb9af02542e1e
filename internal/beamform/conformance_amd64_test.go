//go:build amd64 && !purego

package beamform

import "ultrabeam/internal/cpufeat"

// hostAVX2 and hostAVX512 are the probes as the host set them, read before
// any test clears one.
var hostAVX2, hostAVX512 = cpufeat.AVX2, cpufeat.AVX512

// hostRoutes lists the routes this host can take, widest first: the probes
// as the host set them, AVX-512 cleared (an AVX2-only host), both cleared
// (a host without AVX2, the reference).
func hostRoutes() []route {
	var rs []route
	if hostAVX512 {
		rs = append(rs, route{"avx512", "avx512-native", true, true})
	}
	if hostAVX2 {
		rs = append(rs, route{"avx2", "sse2", true, false})
	}
	return append(rs, route{"ref", "sse2", false, false})
}

// use sets the probes to the route's and returns what restores them.
func (r route) use() (restore func()) {
	avx2, avx512 := cpufeat.AVX2, cpufeat.AVX512
	cpufeat.AVX2, cpufeat.AVX512 = r.avx2, r.avx512
	return func() { cpufeat.AVX2, cpufeat.AVX512 = avx2, avx512 }
}
