//go:build amd64 && !purego

// Package cpufeat holds the one CPU-feature probe the native kernel bodies
// share (the i16 accumulate kernel in internal/beamform, the TABLEFREE fill
// in internal/tablefree): run once at init, read-only afterwards.
package cpufeat

// AVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state. It is a variable only so that tests can clear it to drive the
// no-AVX2 route on an AVX2 host; nothing else writes it. On other
// architectures and under -tags purego it is the constant false.
var AVX2 = probeAVX2()

// cpuid and xgetbv are the raw instructions (cpufeat_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// probeAVX2 checks CPUID.1:ECX OSXSAVE+AVX, XCR0 bits 1-2 and
// CPUID.7.0:EBX bit 5.
func probeAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}
