package nncell

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// oddBox is a data space none of whose edges is a float32 value, so a cell
// clipped to an edge is rounded past it.
var oddBox = vec.Rect{Lo: vec.Point{-2.3, 0.1, -1.7}, Hi: vec.Point{4.9, 1.3, 0.7}}

// buildInBox builds an index over n uniform points scaled into b.
func buildInBox(tb testing.TB, b vec.Rect, seed int64, n int, alg Algorithm) *Index {
	tb.Helper()
	pts := uniquePoints(tb, dataset.NameUniform, seed, n, b.Dim())
	for _, p := range pts {
		for j := range p {
			p[j] = b.Lo[j] + (b.Hi[j]-b.Lo[j])*p[j]
		}
	}
	ix, err := Build(pts, b, newTestPager(), Options{Algorithm: alg})
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// solvedCells re-solves every live cell of ix and returns its MBR padded and
// clipped but not rounded, indexed by id (a zero Rect for a tombstone): the
// float64 rectangle the index stored before cells were float32 rows.
func solvedCells(tb testing.TB, ix *Index) []vec.Rect {
	tb.Helper()
	out := make([]vec.Rect, ix.cells.len())
	cc := newCellCtx(ix.dim)
	for id := range out {
		if ix.point(id) == nil {
			continue
		}
		mbr, _, err := ix.solveCell(cc, id)
		if err != nil {
			tb.Fatal(err)
		}
		r := mbr.Clone()
		for j := range r.Lo {
			r.Lo[j] = max(r.Lo[j]-epsilon, ix.bounds.Lo[j])
			r.Hi[j] = min(r.Hi[j]+epsilon, ix.bounds.Hi[j])
		}
		out[id] = r
	}
	return out
}

// checkRoundedOut fails unless lo and hi are the float32 values next to x on
// its outer sides: equal to x when x is a float32 value, its two float32
// neighbours otherwise.
func checkRoundedOut(t *testing.T, what string, x float64, lo, hi float32) {
	t.Helper()
	if !(float64(lo) <= x && x <= float64(hi)) {
		t.Fatalf("%s: %v rounded to [%v, %v], which does not contain it", what, x, lo, hi)
	}
	if float64(float32(x)) == x {
		if math.Float32bits(lo) != math.Float32bits(float32(x)) || math.Float32bits(hi) != math.Float32bits(float32(x)) {
			t.Fatalf("%s: float32 value %v rounded to [%v, %v]", what, x, lo, hi)
		}
		return
	}
	if math.Nextafter32(lo, float32(math.Inf(1))) != hi {
		t.Fatalf("%s: %v rounded to [%v, %v], not its float32 neighbours", what, x, lo, hi)
	}
}

// Every stored bound is a float32 value on the outward side of the bound it
// was stored from, and the nearest such: for edge values (signed zeros,
// subnormals, values one float32 ulp either side of a float32, halfway
// between two, past the float32 range) and for the LP-solved MBRs of two
// built indexes over a data space whose edges are no float32 values. Every
// stored cell contains its point, and a CellApprox rectangle stored again
// gives back the row it was widened from.
func TestCellStoreRoundsOutward(t *testing.T) {
	inf32 := float32(math.Inf(1))
	sub32 := math.Float32frombits(1) // the smallest float32 subnormal
	xs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300,
		float64(sub32), -float64(sub32), float64(sub32) / 2, 1.5 * float64(sub32),
		math.MaxFloat32, -math.MaxFloat32, 1e39, -1e39, 1, -1}
	xs = append(xs, oddBox.Lo...)
	xs = append(xs, oddBox.Hi...)
	for _, v := range []float32{1, -1, 0.1, -2.3, sub32, 1e-38, math.MaxFloat32 / 2} {
		for _, w := range []float32{math.Nextafter32(v, inf32), math.Nextafter32(v, -inf32)} {
			xs = append(xs, float64(w), (float64(v)+float64(w))/2, math.Nextafter(float64(w), float64(v)))
		}
	}
	s := newCellStore(1, 1)
	for _, x := range xs {
		checkRoundedOut(t, "down32/up32", x, down32(x), up32(x))
		s.set(0, vec.Rect{Lo: vec.Point{x}, Hi: vec.Point{x}})
		row := s.row(0)
		checkRoundedOut(t, "row", x, row[0], row[1])
		before := [2]uint32{math.Float32bits(row[0]), math.Float32bits(row[1])}
		s.set(0, s.rect(0))
		if after := [2]uint32{math.Float32bits(row[0]), math.Float32bits(row[1])}; after != before {
			t.Fatalf("row of %v widened and stored again: %x, was %x", x, after, before)
		}
	}

	for _, alg := range []Algorithm{NNDirection, Correct} {
		ix := buildInBox(t, oddBox, 501, 120, alg)
		d, edges := ix.dim, 0
		for id, want := range solvedCells(t, ix) {
			row := ix.cells.row(id)
			for j := 0; j < d; j++ {
				checkRoundedOut(t, alg.String()+" Lo", want.Lo[j], row[j], up32(want.Lo[j]))
				checkRoundedOut(t, alg.String()+" Hi", want.Hi[j], down32(want.Hi[j]), row[d+j])
				if want.Lo[j] == ix.bounds.Lo[j] || want.Hi[j] == ix.bounds.Hi[j] {
					edges++
				}
			}
			if p := ix.point(id); !ix.cells.contains(id, p) {
				t.Fatalf("%s: cell %d %v does not contain its point %v", alg, id, ix.cells.rect(id), p)
			}
			r, _ := ix.CellApprox(id)
			again := newCellStore(d, 1)
			again.set(0, r)
			for j, v := range again.row(0) {
				if math.Float32bits(v) != math.Float32bits(row[j]) {
					t.Fatalf("%s: cell %d widened and stored again: %v, was %v", alg, id, again.row(0), row)
				}
			}
		}
		if edges == 0 {
			t.Fatalf("%s: no cell reaches a data-space edge", alg)
		}
	}
}
