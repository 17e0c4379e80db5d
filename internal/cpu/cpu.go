// Package cpu probes, once at start-up, whether this process may run the
// AVX2 kernels of internal/lp and internal/nncell. Both packages read the one
// switch, so a process runs one kernel set throughout: "avx2", or "go", the
// portable loops that are also the reference the kernels are tested against.
package cpu

// AVX2 selects the AVX2 kernels of internal/lp and internal/nncell. It is set
// once, here, from what the CPU and the operating system support; tests
// switch it to run both kernel sets, nothing else writes it.
var AVX2 = hasAVX2()
