package nncell

import (
	"math"

	"repro/internal/vec"
)

// pointDir is the point directory behind the k-NN query and the NN fallback:
// for every (dimension j, stripe s) of the cell directory's grid one bitset
// over point ids, with bit id set iff the point is live and
// stripe(j, p[j]) ≤ s. The rows are cumulative, so the live points whose
// stripe in dimension j lies in [a, b] are le[b] &^ le[a-1] — two row reads
// whatever the width of the range — and the last row of any dimension is the
// live set.
//
// stripe is monotone, so a point with |p[j] − q[j]| ≤ r in every dimension
// has its stripes inside those of q−r and q+r and survives box(q, r): the
// survivors are a superset of the ball of radius r around q, which is all the
// k-NN search needs (DESIGN.md §19).
//
// A bit lives and dies with the point's coordinate row: set where the row is
// written into ptsFlat, cleared where bury poisons it, under the index's write
// lock. A pointDir has no lock of its own.
type pointDir struct {
	stripeGrid
	// le[j*stripes+s] is the cumulative bitset of dimension j, stripe s. All
	// rows have the same length, at least ⌈len(points)/64⌉ words.
	le [][]uint64
	// minWidth is the narrowest positive stripe width, the radius a search
	// without a usable seed distance starts from; +Inf when every dimension
	// has zero width.
	minWidth float64
}

// newPointDir returns the directory of the rows of ptsFlat (d coordinates per
// id, a NaN row for a tombstone) on g, sized for exactly that many ids.
func newPointDir(g stripeGrid, ptsFlat []float64) *pointDir {
	d := len(g.lo)
	pd := &pointDir{stripeGrid: g, le: newRows(d, len(ptsFlat)/d), minWidth: math.Inf(1)}
	for _, sc := range g.scale {
		if sc > 0 {
			pd.minWidth = min(pd.minWidth, 1/sc)
		}
	}
	for id := 0; id*d < len(ptsFlat); id++ {
		if p := ptsFlat[id*d : (id+1)*d]; !math.IsNaN(p[0]) {
			pd.set(id, p)
		}
	}
	return pd
}

// set enters point id at p, growing the rows when id is the first of a new
// word.
func (pd *pointDir) set(id int, p []float64) {
	w, bit := id>>6, uint64(1)<<(id&63)
	growRows(pd.le, w)
	for j, x := range p {
		for _, row := range pd.le[j*stripes+pd.stripe(j, x) : (j+1)*stripes] {
			row[w] |= bit
		}
	}
}

// clear removes point id from every row.
func (pd *pointDir) clear(id int) {
	w, mask := id>>6, ^(uint64(1) << (id & 63))
	if w >= len(pd.le[0]) {
		return
	}
	for _, row := range pd.le {
		row[w] &= mask
	}
}

// live is the bitset of the live points. The caller must not change it.
func (pd *pointDir) live() []uint64 { return pd.le[stripes-1] }

// box writes into acc (reused when large enough) the live points whose stripe
// lies, in every dimension j, between those of q[j]−r and q[j]+r. whole
// reports that no dimension excluded a stripe, so acc is the live set; an
// infinite or NaN r asks for exactly that.
func (pd *pointDir) box(acc []uint64, q vec.Point, r float64) (_ []uint64, whole bool) {
	acc = sized(acc, len(pd.le[0]))
	copy(acc, pd.live())
	if !(r < math.Inf(1)) {
		return acc, true
	}
	whole = true
	for j := range pd.lo {
		a, b := pd.stripe(j, q[j]-r), pd.stripe(j, q[j]+r)
		if a == 0 && (b == stripes-1 || pd.scale[j] == 0) {
			continue // a zero-width dimension has the one stripe
		}
		whole = false
		hi := pd.le[j*stripes+b][:len(acc)]
		if a == 0 {
			for w := range acc {
				acc[w] &= hi[w]
			}
			continue
		}
		lo := pd.le[j*stripes+a-1][:len(acc)]
		for w := range acc {
			acc[w] &= hi[w] &^ lo[w]
		}
	}
	return acc, whole
}

// check verifies the directory against the coordinate store: it must equal,
// word for word, the directory a fresh fill of ptsFlat would produce.
func (pd *pointDir) check(ptsFlat []float64) error {
	return compareRows("point", pd.le, newPointDir(pd.stripeGrid, ptsFlat).le, "the coordinate store says")
}
