package nncell

import (
	"fmt"
	"math/bits"

	"repro/internal/vec"
)

// stripes is the number of equal slices every dimension of the data space is
// cut into. A constant, not an option: one machine word per cell and
// dimension. 128 would roughly halve the extra distance evaluations the
// outward rounding costs (DESIGN.md §17) for twice the memory.
const stripes = 64

// cellDir is the cell directory behind the NN point query: for every
// (dimension, stripe) one bitset over point ids, with bit id set iff some
// stored fragment of cell id overlaps that stripe. ANDing the d rows of a
// query point's stripes leaves exactly the cells whose approximation,
// rounded outward to the stripe grid, contains the point — a superset of the
// cells whose approximation contains it, so Lemma 2 carries over unchanged.
//
// stripe is the only code that maps a coordinate to a stripe, for rectangle
// ends and query points alike, and it is monotone; lo ≤ q ≤ hi therefore
// implies stripe(lo) ≤ stripe(q) ≤ stripe(hi) whatever the rounding does.
//
// A cellDir has no lock of its own: bits change only in storeCell and
// removeFragments, at commit under the index's write lock.
type cellDir struct {
	lo    []float64 // data-space lower corner
	scale []float64 // stripes / data-space extent; 0 for a zero-width dimension
	// rows[j*stripes+s] is the bitset of dimension j, stripe s. All rows have
	// the same length, ⌈len(points)/64⌉ words.
	rows [][]uint64
}

// newCellDir returns the directory of the given cells (indexed by point id,
// nil for tombstones), sized for exactly len(cells) ids in one allocation.
func newCellDir(bounds vec.Rect, cells [][]vec.Rect) *cellDir {
	d := bounds.Dim()
	cd := &cellDir{
		lo:    append([]float64(nil), bounds.Lo...),
		scale: make([]float64, d),
		rows:  make([][]uint64, d*stripes),
	}
	for j := range cd.scale {
		if w := bounds.Hi[j] - bounds.Lo[j]; w > 0 {
			cd.scale[j] = stripes / w
		}
	}
	words := (len(cells) + 63) / 64
	back := make([]uint64, len(cd.rows)*words)
	for k := range cd.rows {
		cd.rows[k] = back[k*words : (k+1)*words : (k+1)*words]
	}
	for id, frags := range cells {
		cd.add(id, frags)
	}
	return cd
}

// stripe maps coordinate x of dimension j to its stripe, clamped to the
// grid: everything left of the data space lands in stripe 0, everything
// right of it (and the upper bound itself) in the last one.
func (cd *cellDir) stripe(j int, x float64) int {
	t := (x - cd.lo[j]) * cd.scale[j]
	if !(t >= 0) { // negative, or NaN from an infinite offset times a zero scale
		return 0
	}
	if t >= stripes {
		return stripes - 1
	}
	return int(t)
}

// add sets bit id in every row one of the fragments overlaps, growing the
// rows when id is the first of a new word.
func (cd *cellDir) add(id int, frags []vec.Rect) {
	w, bit := id>>6, uint64(1)<<(id&63)
	for len(cd.rows[0]) <= w {
		for k := range cd.rows {
			cd.rows[k] = append(cd.rows[k], 0)
		}
	}
	for _, r := range frags {
		for j := range cd.lo {
			base := j * stripes
			for s, hi := cd.stripe(j, r.Lo[j]), cd.stripe(j, r.Hi[j]); s <= hi; s++ {
				cd.rows[base+s][w] |= bit
			}
		}
	}
}

// remove clears bit id in every row.
func (cd *cellDir) remove(id int) {
	w, mask := id>>6, ^(uint64(1) << (id & 63))
	if w >= len(cd.rows[0]) {
		return
	}
	for _, row := range cd.rows {
		row[w] &= mask
	}
}

// sized returns buf with the given length, contents unspecified, reallocating
// only when it is too small.
func sized(buf []uint64, words int) []uint64 {
	if cap(buf) < words {
		return make([]uint64, words)
	}
	return buf[:words]
}

// survivors ANDs the rows of p's stripes into acc (reused when large enough)
// and returns it: bit id of the result is set iff cell id's stripe-rounded
// approximation contains p.
func (cd *cellDir) survivors(acc []uint64, p vec.Point) []uint64 {
	words := len(cd.rows[0])
	acc = sized(acc, words)
	copy(acc, cd.rows[cd.stripe(0, p[0])])
	for j := 1; j < len(cd.lo); j++ {
		row := cd.rows[j*stripes+cd.stripe(j, p[j])][:words]
		for w := range acc {
			acc[w] &= row[w]
		}
	}
	return acc
}

// overlapping is the range form of survivors: per dimension it ORs the rows of
// stripes stripe(r.Lo[j]) … stripe(r.Hi[j]) and ANDs the d results into acc
// (reused when large enough). That keeps every cell with a fragment
// intersecting r: the two share a coordinate x in each dimension, and monotone
// stripe puts stripe(x) inside the fragment's stripe range and inside r's.
// An empty r (Lo > Hi) ORs no row and leaves nothing.
func (cd *cellDir) overlapping(acc []uint64, r vec.Rect) []uint64 {
	acc = sized(acc, len(cd.rows[0]))
	for w := range acc {
		acc[w] = ^uint64(0)
	}
	for j := range cd.lo {
		rows := cd.rows[j*stripes : (j+1)*stripes]
		lo, hi := cd.stripe(j, r.Lo[j]), cd.stripe(j, r.Hi[j])
		for w, a := range acc {
			if a == 0 {
				continue
			}
			var or uint64
			for s := lo; s <= hi; s++ {
				or |= rows[s][w]
			}
			acc[w] = a & or
		}
	}
	return acc
}

// check verifies the directory against the stored cells: it must equal the
// directory a fresh fill would produce — for every live id the set bits of
// each dimension are the union of its fragments' stripe ranges, and a
// tombstoned or never-committed id has no bit in any row.
func (cd *cellDir) check(bounds vec.Rect, cells [][]vec.Rect) error {
	want := newCellDir(bounds, cells)
	words := len(cd.rows[0])
	if need := len(want.rows[0]); words < need {
		return fmt.Errorf("nncell: cell directory rows hold %d words, %d point slots need %d", words, len(cells), need)
	}
	for k, row := range cd.rows {
		if len(row) != words {
			return fmt.Errorf("nncell: cell directory row (dim %d, stripe %d) holds %d words, row 0 holds %d",
				k/stripes, k%stripes, len(row), words)
		}
		for w, got := range row {
			var exp uint64
			if w < len(want.rows[k]) {
				exp = want.rows[k][w]
			}
			if diff := got ^ exp; diff != 0 {
				b := bits.TrailingZeros64(diff)
				return fmt.Errorf("nncell: cell directory bit of id %d (dim %d, stripe %d) is %d, stored fragments say %d",
					w<<6|b, k/stripes, k%stripes, got>>b&1, exp>>b&1)
			}
		}
	}
	return nil
}
