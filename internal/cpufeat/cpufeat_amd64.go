//go:build amd64 && !purego

// Package cpufeat holds the CPU-feature probes the native kernel bodies
// share (the i16 accumulate kernel in internal/beamform, the TABLEFREE fill
// in internal/tablefree): run once at init, read-only afterwards.
package cpufeat

// AVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state. It is a variable only so that tests can clear it to drive the
// no-AVX2 route on an AVX2 host; nothing else writes it. On other
// architectures and under -tags purego it is the constant false.
var AVX2 = probeAVX2()

// AVX512 reports whether the CPU implements AVX-512 F, DQ, BW and VL, the
// OS saves the opmask and full ZMM state, and AVX2 holds too — a body that
// needs it may use every AVX2 instruction. Like AVX2 it is a variable only
// so that tests can clear it; on other architectures and under -tags purego
// it is the constant false.
var AVX512 = AVX2 && probeAVX512()

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

// probeAVX512 checks, on a host probeAVX2 accepted, XCR0 bits 5-7 (opmask,
// upper ZMM0-15, ZMM16-31) and CPUID.7.0:EBX bits 16 (F), 17 (DQ), 30 (BW)
// and 31 (VL).
func probeAVX512() bool {
	if lo, _ := xgetbv(); lo&0xE0 != 0xE0 {
		return false
	}
	const f, dq, bw, vl = 1 << 16, 1 << 17, 1 << 30, 1 << 31
	_, b, _, _ := cpuid(7, 0)
	return b&(f|dq|bw|vl) == f|dq|bw|vl
}
