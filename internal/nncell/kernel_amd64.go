package nncell

//go:noescape
func and4(acc, src, a, b, c, e []uint64)

//go:noescape
func andNot4(acc, a, b, c, e []uint64)

//go:noescape
func nearestAVX2(set []uint64, q, pts []float64, rows int) (id int, dist2 float64, count int, ok bool)

//go:noescape
func boundedAVX2(set []uint64, q, pts []float64, rows int, bound float64, out []Neighbor, mins *laneMinima) (kept, count int, ok bool)

//go:noescape
func compactAVX2(list []Neighbor, bound float64) (kept int)

//go:noescape
func boundAVX2(m *laneMinima, k int) float64
