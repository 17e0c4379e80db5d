package nncell

//go:noescape
func and4(acc, src, a, b, c, e []uint64)

//go:noescape
func andNot4(acc, a, b, c, e []uint64)

//go:noescape
func nearestAVX2(set []uint64, q, pts []float64, rows int, codes [][]uint64, qcodes []uint64, inv float64) (id int, dist2 float64, count, dists int, ok bool)

//go:noescape
func boundedAVX2(set []uint64, q, pts []float64, rows int, bound float64, out []Neighbor, mins *laneMinima, codes [][]uint64, qcodes []uint64, limit int) (kept, count, dists int, ok bool)

//go:noescape
func compactAVX2(list []Neighbor, bound float64) (kept int)

//go:noescape
func queryCodesAVX2(dst []uint64, q, lo, scale []float64) (nan bool)

//go:noescape
func boundAVX2(m *laneMinima, k int) float64

// compactIDs[m] moves the ids of a group of eight (dwords) whose bit is set
// in the mask m to its front, in order: VPERMD with it takes the i-th set
// bit's lane into lane i. The fused folds append the ids their code bound
// keeps with it.
var compactIDs = func() (t [256][8]uint32) {
	for m := range t {
		i := 0
		for k := range uint32(8) {
			if m>>k&1 != 0 {
				t[m][i] = k
				i++
			}
		}
	}
	return t
}()
