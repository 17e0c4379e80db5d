//go:build !amd64

package lp

// Off amd64 cpu.AVX2 is false and the Go loops of lp.go are the kernels;
// these stubs only satisfy the compiler.

func priceAVX2(consT, wPad, pi, red, wBox []float64, m int, bestRed float64, lanes *laneMinima) {
	panic("lp: no AVX2 kernels on this architecture")
}

func piAVX2(pi, wb, binv []float64) { panic("lp: no AVX2 kernels on this architecture") }

func uAVX2(u, binv, col []float64) { panic("lp: no AVX2 kernels on this architecture") }

func updateAVX2(binv, u []float64, leave int, inv float64) {
	panic("lp: no AVX2 kernels on this architecture")
}
