//go:build !amd64

package nncell

// useAVX2 is false off amd64: the Go loops of kernel.go are the kernels.
var useAVX2 = false

func and4(acc, src, a, b, c, e []uint64) { panic("nncell: no AVX2 kernels on this architecture") }

func andNot4(acc, a, b, c, e []uint64) { panic("nncell: no AVX2 kernels on this architecture") }

func dist2sAVX2(list []Neighbor, q, pts []float64, rows int) bool {
	panic("nncell: no AVX2 kernels on this architecture")
}
