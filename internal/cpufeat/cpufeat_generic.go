//go:build purego || !amd64

// Package cpufeat holds the one CPU-feature probe the native kernel bodies
// share; this build has no native bodies, so every feature is absent.
package cpufeat

// AVX2 is false on non-amd64 architectures and under -tags purego.
const AVX2 = false
