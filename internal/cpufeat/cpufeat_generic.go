//go:build purego || !amd64

// Package cpufeat holds the CPU-feature probes the native kernel bodies
// share; this build has no native bodies, so every feature is absent.
package cpufeat

// AVX2 is false on non-amd64 architectures and under -tags purego.
const AVX2 = false

// AVX512 is false on non-amd64 architectures and under -tags purego.
const AVX512 = false
