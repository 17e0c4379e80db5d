package cpu

// hasAVX2 reports whether the CPU has AVX2 and BMI1 (CPUID leaf 7, EBX bits 5
// and 3), AVX with XGETBV and POPCNT (leaf 1, ECX bits 28, 27 and 23), and the
// operating system saves the ymm registers across context switches (XCR0 bits
// 1 and 2). The fused folds of internal/nncell walk the bits with POPCNT,
// TZCNT and BLSR, and its boundAVX2 counts with POPCNT.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2
	if xcr0 := xgetbv0(); xcr0&(sse|ymm) != sse|ymm {
		return false
	}
	const bmi1, avx2 = 1 << 3, 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(bmi1|avx2) == bmi1|avx2
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
