//go:build linux && amd64 && !purego

package cpufeat

import (
	"os"
	"regexp"
	"testing"
)

// TestAVX2AgreesWithKernel holds the probe to the flags line the Linux
// kernel derives from the same CPUID leaves and XCR0 bits.
func TestAVX2AgreesWithKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare against")
	}
	if kernel := regexp.MustCompile(`(?m)^flags\s*:.*\bavx2\b`).Match(info); AVX2 != kernel {
		t.Fatalf("probe reports AVX2 = %t, /proc/cpuinfo says %t", AVX2, kernel)
	}
}
