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
// (dimension, stripe) one bitset over point ids, with bit id set iff the
// stored rectangle of cell id overlaps that stripe. ANDing the d rows of a
// query point's stripes leaves exactly the cells whose approximation,
// rounded outward to the stripe grid, contains the point — a superset of the
// cells whose approximation contains it, so Lemma 2 carries over unchanged.
//
// A cellDir has no lock of its own: bits change only in storeCell and
// removeCell, at commit under the index's write lock.
type cellDir struct {
	stripeGrid
	// rows[j*stripes+s] is the bitset of dimension j, stripe s. All rows have
	// the same length, ⌈len(points)/64⌉ words.
	rows [][]uint64
}

// stripeGrid is the grid both directories (cellDir here, pointDir beside it)
// are laid on. stripe is the only code that maps a coordinate to a stripe, for
// rectangle ends, data points and query points alike, and it is monotone;
// lo ≤ q ≤ hi therefore implies stripe(lo) ≤ stripe(q) ≤ stripe(hi) whatever
// the rounding does.
type stripeGrid struct {
	lo    []float64 // data-space lower corner
	scale []float64 // stripes / data-space extent; 0 for a zero-width dimension
}

func newStripeGrid(bounds vec.Rect) stripeGrid {
	g := stripeGrid{
		lo:    append([]float64(nil), bounds.Lo...),
		scale: make([]float64, bounds.Dim()),
	}
	for j := range g.scale {
		if w := bounds.Hi[j] - bounds.Lo[j]; w > 0 {
			g.scale[j] = stripes / w
		}
	}
	return g
}

// stripe maps coordinate x of dimension j to its stripe, clamped to the
// grid: everything left of the data space lands in stripe 0, everything
// right of it (and the upper bound itself) in the last one.
func (g stripeGrid) stripe(j int, x float64) int {
	t := (x - g.lo[j]) * g.scale[j]
	if !(t >= 0) { // negative, or NaN from an infinite offset times a zero scale
		return 0
	}
	if t >= stripes {
		return stripes - 1
	}
	return int(t)
}

// newRows returns d·stripes zeroed bitset rows for n ids, cut from one
// allocation.
func newRows(d, n int) [][]uint64 {
	rows := make([][]uint64, d*stripes)
	words := (n + 63) / 64
	back := make([]uint64, len(rows)*words)
	for k := range rows {
		rows[k] = back[k*words : (k+1)*words : (k+1)*words]
	}
	return rows
}

// growRows appends zero words to every row until word w exists.
func growRows(rows [][]uint64, w int) {
	for len(rows[0]) <= w {
		for k := range rows {
			rows[k] = append(rows[k], 0)
		}
	}
}

// newCellDir returns the directory of the given cells (indexed by point id,
// nil Lo for tombstones), sized for exactly len(cells) ids in one allocation.
func newCellDir(bounds vec.Rect, cells []vec.Rect) *cellDir {
	cd := &cellDir{stripeGrid: newStripeGrid(bounds), rows: newRows(bounds.Dim(), len(cells))}
	for id, r := range cells {
		if r.Lo != nil {
			cd.add(id, r)
		}
	}
	return cd
}

// add sets bit id in every row r overlaps, growing the rows when id is the
// first of a new word.
func (cd *cellDir) add(id int, r vec.Rect) {
	w, bit := id>>6, uint64(1)<<(id&63)
	growRows(cd.rows, w)
	for j := range cd.lo {
		base := j * stripes
		for s, hi := cd.stripe(j, r.Lo[j]), cd.stripe(j, r.Hi[j]); s <= hi; s++ {
			cd.rows[base+s][w] |= bit
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

// gatherDims is the number of dimensions whose rows a directory query gathers
// on its stack before the fused AND; a higher-dimensional index spills the
// gather to the heap, one small allocation per query.
const gatherDims = 16

// survivors writes the AND of the rows of p's stripes into acc (reused when
// large enough) and returns it: bit id of the result is set iff cell id's
// stripe-rounded approximation contains p. The d rows are gathered first and
// ANDed four per pass (andRows): two passes over acc at d = 8, not seven.
func (cd *cellDir) survivors(acc []uint64, p vec.Point) []uint64 {
	acc = sized(acc, len(cd.rows[0]))
	var buf [gatherDims][]uint64
	rows := buf[:0]
	for j := range cd.lo {
		rows = append(rows, cd.rows[j*stripes+cd.stripe(j, p[j])])
	}
	andRows(acc, rows)
	return acc
}

// overlapping is the range form of survivors: per dimension it ORs the rows of
// stripes stripe(r.Lo[j]) … stripe(r.Hi[j]) and ANDs the d results into acc
// (reused when large enough). That keeps every cell whose rectangle
// intersects r: the two share a coordinate x in each dimension, and monotone
// stripe puts stripe(x) inside the cell's stripe range and inside r's.
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
// each dimension are its rectangle's stripe range, and a tombstoned or
// never-committed id has no bit in any row.
func (cd *cellDir) check(bounds vec.Rect, cells []vec.Rect) error {
	return compareRows("cell", cd.rows, newCellDir(bounds, cells).rows, "stored cells say")
}

// compareRows checks the rows of a directory against those of a fresh fill:
// equal word for word, any words past the fresh fill's (left behind by a
// rolled-back append) zero.
func compareRows(name string, got, want [][]uint64, source string) error {
	words := len(got[0])
	if need := len(want[0]); words < need {
		return fmt.Errorf("nncell: %s directory rows hold %d words, the point slots need %d", name, words, need)
	}
	for k, row := range got {
		if len(row) != words {
			return fmt.Errorf("nncell: %s directory row (dim %d, stripe %d) holds %d words, row 0 holds %d",
				name, k/stripes, k%stripes, len(row), words)
		}
		for w, g := range row {
			var exp uint64
			if w < len(want[k]) {
				exp = want[k][w]
			}
			if diff := g ^ exp; diff != 0 {
				b := bits.TrailingZeros64(diff)
				return fmt.Errorf("nncell: %s directory bit of id %d (dim %d, stripe %d) is %d, %s %d",
					name, w<<6|b, k/stripes, k%stripes, g>>b&1, source, exp>>b&1)
			}
		}
	}
	return nil
}
