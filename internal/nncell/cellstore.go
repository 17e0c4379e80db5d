package nncell

import (
	"math"

	"repro/internal/vec"
)

// cellStore holds the approximation MBR of every cell in one flat float32
// slab: the row of point id is rows[id*2d:(id+1)*2d], its Lo corner then its
// Hi corner. Every bound is rounded outward to float32 — Lo down, Hi up — so a
// row is a superset of the float64 MBR it was stored from, which by Lemma 1 is
// all an approximation has to be. At d = 8 a cell costs 64 B, with no header
// and no allocation of its own.
//
// An empty row (Lo = +Inf, Hi = −Inf) marks a slot without a cell: a tombstone
// or a staged insert. It contains no point and intersects no rectangle.
type cellStore struct {
	d    int
	rows []float32
}

// newCellStore returns n empty rows in one allocation.
func newCellStore(d, n int) cellStore {
	s := cellStore{d: d, rows: make([]float32, 2*d*n)}
	for id := 0; id < n; id++ {
		s.clear(id)
	}
	return s
}

// len returns the number of slots.
func (s *cellStore) len() int { return len(s.rows) / (2 * s.d) }

// row returns the 2·d bounds of id, a view into the slab.
func (s *cellStore) row(id int) []float32 {
	return s.rows[2*s.d*id : 2*s.d*(id+1) : 2*s.d*(id+1)]
}

// has reports whether id stores a cell (its row is not the empty marker).
func (s *cellStore) has(id int) bool { return s.rows[2*s.d*id] <= s.rows[2*s.d*id+s.d] }

// set stores r as the cell of id, rounded outward.
func (s *cellStore) set(id int, r vec.Rect) { putRow(s.row(id), r) }

// clear empties the row of id.
func (s *cellStore) clear(id int) {
	row := s.row(id)
	for j := 0; j < s.d; j++ {
		row[j], row[s.d+j] = float32(math.Inf(1)), float32(math.Inf(-1))
	}
}

// grow appends an empty row and returns its id.
func (s *cellStore) grow() int {
	id := s.len()
	s.rows = append(s.rows, make([]float32, 2*s.d)...)
	s.clear(id)
	return id
}

// truncate drops every slot from n on.
func (s *cellStore) truncate(n int) { s.rows = s.rows[:2*s.d*n] }

// rect returns the row of id widened to a vec.Rect (exactly: every float32 is
// a float64).
func (s *cellStore) rect(id int) vec.Rect {
	row := s.row(id)
	r := vec.Rect{Lo: make(vec.Point, s.d), Hi: make(vec.Point, s.d)}
	for j := 0; j < s.d; j++ {
		r.Lo[j], r.Hi[j] = float64(row[j]), float64(row[s.d+j])
	}
	return r
}

// contains reports whether the cell of id contains q (boundary inclusive),
// Rect.Contains on the row.
func (s *cellStore) contains(id int, q vec.Point) bool {
	row := s.row(id)
	for j, v := range q[:s.d] {
		if v < float64(row[j]) || v > float64(row[s.d+j]) {
			return false
		}
	}
	return true
}

// intersects reports whether the cell of id shares a point with r,
// Rect.Intersects on the row.
func (s *cellStore) intersects(id int, r vec.Rect) bool {
	row := s.row(id)
	for j := 0; j < s.d; j++ {
		if float64(row[j]) > r.Hi[j] || r.Lo[j] > float64(row[s.d+j]) {
			return false
		}
	}
	return true
}

// putRow writes r into row (2·d floats), Lo rounded down and Hi rounded up.
// On bounds that are float32 values already it is an exact copy, so a row
// widened and put back is unchanged.
func putRow(row []float32, r vec.Rect) {
	d := len(r.Lo)
	for j := 0; j < d; j++ {
		row[j], row[d+j] = down32(r.Lo[j]), up32(r.Hi[j])
	}
}

// down32 is the largest float32 not above x, up32 the smallest not below it;
// past the float32 range that is an infinity.
func down32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}
