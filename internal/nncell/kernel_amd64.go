package nncell

// useAVX2 selects the AVX2 kernels of kernel_amd64.s. It is set once, here,
// from what the CPU and the operating system support; tests switch it to run
// both kernel sets, nothing else writes it.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and AVX
// with XGETBV (leaf 1, ECX bits 28 and 27), and the operating system saves the
// ymm registers across context switches (XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2
	if xcr0 := xgetbv0(); xcr0&(sse|ymm) != sse|ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

//go:noescape
func and4(acc, src, a, b, c, e []uint64)

//go:noescape
func andNot4(acc, a, b, c, e []uint64)

//go:noescape
func dist2sAVX2(list []Neighbor, q, pts []float64, rows int) (ok bool)
