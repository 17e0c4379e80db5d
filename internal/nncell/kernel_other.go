//go:build !amd64

package nncell

// useAVX2 is false off amd64: the Go loops of kernel.go are the kernels.
var useAVX2 = false

func and4(acc, src, a, b, c, e []uint64) { panic("nncell: no AVX2 kernels on this architecture") }

func andNot4(acc, a, b, c, e []uint64) { panic("nncell: no AVX2 kernels on this architecture") }

func dist2sAVX2(list []Neighbor, q, pts []float64, rows int) bool {
	panic("nncell: no AVX2 kernels on this architecture")
}

func walkBits(dst []Neighbor, set []uint64) {
	panic("nncell: no AVX2 kernels on this architecture")
}

func nearestAVX2(set []uint64, q, pts []float64, rows int) (id int, dist2 float64, count int, ok bool) {
	panic("nncell: no AVX2 kernels on this architecture")
}

func onesCount(set []uint64) int { panic("nncell: no AVX2 kernels on this architecture") }
