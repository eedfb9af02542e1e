//go:build amd64 && !purego

package delaycache

import "ultrabeam/internal/cpufeat"

// converters are the routes NewNative takes on this build: the vector body
// where the host has it, and the loop.
func converters() map[string]func(f func()) {
	return map[string]func(f func()){
		"host": func(f func()) { f() },
		"loop": func(f func()) {
			defer func(v bool) { cpufeat.AVX512 = v }(cpufeat.AVX512)
			cpufeat.AVX512 = false
			f()
		},
	}
}
