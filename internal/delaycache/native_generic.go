//go:build purego || !amd64

package delaycache

import "ultrabeam/internal/delay"

// convertVector reports that this build has no vector converter.
func convertVector(*Native, []uint8, delay.Block16) bool { return false }

// tileNativeHost reports that this build has no tile-native bodies.
func tileNativeHost() bool { return false }
