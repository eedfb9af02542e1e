package fulltable

import (
	"strings"
	"testing"
)

func TestPaperAnalytics(t *testing.T) {
	a := PaperAnalytics()
	// §II-B: "the theoretical number of delay values to be calculated is
	// about 164×10⁹".
	if e := a.Entries(); e < 163e9 || e > 165e9 {
		t.Errorf("entries = %.3g, paper says ≈164e9", e)
	}
	// §II-C: "about 2.5×10¹² delay values/s for reconstruction at 15 fps".
	if acc := a.AccessesPerSecond(); acc < 2.4e12 || acc > 2.6e12 {
		t.Errorf("accesses/s = %.3g, paper says ≈2.5e12", acc)
	}
	// 13-bit entries: ≈266 GB of raw table.
	if gb := a.StorageBytes() / 1e9; gb < 250 || gb > 280 {
		t.Errorf("storage = %.0f GB", gb)
	}
	if a.BandwidthBytesPerSec() <= a.StorageBytes() {
		t.Error("bandwidth must exceed one table per second at 15 fps")
	}
	if !strings.Contains(a.String(), "naive table") {
		t.Error("String should describe the baseline")
	}
}
