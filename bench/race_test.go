//go:build race

package main

// The race detector slows the served path about tenfold; wall-clock
// windows a second long then hold no volume at all.
func init() { raceDetector = true }
