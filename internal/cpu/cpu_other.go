//go:build !amd64

package cpu

// hasAVX2 is false off amd64: the Go loops are the kernels.
func hasAVX2() bool { return false }
