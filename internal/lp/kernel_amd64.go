package lp

//go:noescape
func priceAVX2(consT, wPad, pi, red, wBox []float64, m int, bestRed float64, lanes *laneMinima)

//go:noescape
func piAVX2(pi, wb, binv []float64)

//go:noescape
func uAVX2(u, binv, col []float64)

//go:noescape
func updateAVX2(binv, u []float64, leave int, inv float64)
