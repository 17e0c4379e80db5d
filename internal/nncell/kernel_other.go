//go:build !amd64

package nncell

// Off amd64 cpu.AVX2 is false and the Go loops of kernel.go are the kernels;
// these stubs only satisfy the compiler.

func and4(acc, src, a, b, c, e []uint64) { panic("nncell: no AVX2 kernels on this architecture") }

func andNot4(acc, a, b, c, e []uint64) { panic("nncell: no AVX2 kernels on this architecture") }

func nearestAVX2(set []uint64, q, pts []float64, rows int, codes [][]uint64, qcodes []uint64, inv float64) (id int, dist2 float64, count, dists int, ok bool) {
	panic("nncell: no AVX2 kernels on this architecture")
}

func boundedAVX2(set []uint64, q, pts []float64, rows int, bound float64, out []Neighbor, mins *laneMinima, codes [][]uint64, qcodes []uint64, limit int) (kept, count, dists int, ok bool) {
	panic("nncell: no AVX2 kernels on this architecture")
}

func queryCodesAVX2(dst []uint64, q, lo, scale []float64) (nan bool) {
	panic("nncell: no AVX2 kernels on this architecture")
}

func compactAVX2(list []Neighbor, bound float64) (kept int) {
	panic("nncell: no AVX2 kernels on this architecture")
}

func boundAVX2(m *laneMinima, k int) float64 { panic("nncell: no AVX2 kernels on this architecture") }
