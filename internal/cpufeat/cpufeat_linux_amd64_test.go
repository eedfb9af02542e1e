//go:build linux && amd64 && !purego

package cpufeat

import (
	"os"
	"regexp"
	"testing"
)

// cpuinfoFlags returns the flags line the Linux kernel derives from the
// same CPUID leaves and XCR0 bits the probes read.
func cpuinfoFlags(t *testing.T) string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare against")
	}
	return regexp.MustCompile(`(?m)^flags\s*:.*$`).FindString(string(info))
}

// hasFlag reports whether the flags line lists flag as a whole word.
func hasFlag(flags, flag string) bool {
	return regexp.MustCompile(`\b` + flag + `\b`).MatchString(flags)
}

// TestAVX2AgreesWithKernel holds the probe to the kernel's avx2 flag.
func TestAVX2AgreesWithKernel(t *testing.T) {
	if kernel := hasFlag(cpuinfoFlags(t), "avx2"); AVX2 != kernel {
		t.Fatalf("probe reports AVX2 = %t, /proc/cpuinfo says %t", AVX2, kernel)
	}
}

// TestAVX512AgreesWithKernel holds the probe to the kernel's avx512f,
// avx512dq, avx512bw and avx512vl flags (the kernel drops all four when the
// OS does not enable the ZMM state), together with avx2.
func TestAVX512AgreesWithKernel(t *testing.T) {
	flags := cpuinfoFlags(t)
	kernel := hasFlag(flags, "avx2")
	for _, f := range []string{"avx512f", "avx512dq", "avx512bw", "avx512vl"} {
		kernel = kernel && hasFlag(flags, f)
	}
	if AVX512 != kernel {
		t.Fatalf("probe reports AVX512 = %t, /proc/cpuinfo avx2+avx512f+avx512dq+avx512bw+avx512vl says %t", AVX512, kernel)
	}
}
