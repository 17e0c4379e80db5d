package nncell

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

// checkDirQuery compares the directory's answer at q with the naive model
// (the rectangle of every id, as given): the survivors must be exactly the
// ids whose per-dimension stripe ranges cover q's stripes, and must include
// every id whose rectangle contains q (Lemma 1 through the outward rounding).
func checkDirQuery(t *testing.T, cd *cellDir, model map[int]vec.Rect, q vec.Point) {
	t.Helper()
	got := map[int]bool{}
	for w, word := range cd.survivors(nil, q) {
		for ; word != 0; word &= word - 1 {
			got[w<<6|bits.TrailingZeros64(word)] = true
		}
	}
	for id, r := range model {
		rounded := true
		for j := range q {
			s := cd.stripe(j, q[j])
			rounded = rounded && cd.stripe(j, r.Lo[j]) <= s && s <= cd.stripe(j, r.Hi[j])
		}
		if got[id] != rounded {
			t.Fatalf("q=%v: id %d (cell %v) survives=%v, its stripe ranges cover q=%v", q, id, r, got[id], rounded)
		}
		if r.Contains(q) && !got[id] {
			t.Fatalf("q=%v: id %d dismissed although its cell %v contains q", q, id, r)
		}
		delete(got, id)
	}
	for id := range got {
		t.Fatalf("q=%v: id %d survives but stores no cell", q, id)
	}
}

// checkDirRange is checkDirQuery for the range form: overlapping(r) must be
// exactly the ids whose per-dimension stripe ranges meet r's stripe range in
// every dimension, and must include every id whose rectangle intersects r.
func checkDirRange(t *testing.T, cd *cellDir, model map[int]vec.Rect, r vec.Rect) {
	t.Helper()
	got := map[int]bool{}
	for w, word := range cd.overlapping(nil, r) {
		for ; word != 0; word &= word - 1 {
			got[w<<6|bits.TrailingZeros64(word)] = true
		}
	}
	for id, c := range model {
		rounded := true
		for j := range r.Lo {
			lo, hi := cd.stripe(j, r.Lo[j]), cd.stripe(j, r.Hi[j])
			rounded = rounded && lo <= hi && cd.stripe(j, c.Lo[j]) <= hi && lo <= cd.stripe(j, c.Hi[j])
		}
		if got[id] != rounded {
			t.Fatalf("r=%v: id %d (cell %v) survives=%v, its stripe ranges meet r's=%v", r, id, c, got[id], rounded)
		}
		if c.Intersects(r) && !got[id] {
			t.Fatalf("r=%v: id %d dismissed although its cell %v intersects r", r, id, c)
		}
		delete(got, id)
	}
	for id := range got {
		t.Fatalf("r=%v: id %d survives but stores no cell", r, id)
	}
}

// dirTestBounds are the data spaces of the directory tests: the unit cube,
// a shifted box whose extents are not powers of two, and a box with a
// zero-width dimension.
func dirTestBounds(variant, d int) vec.Rect {
	b := vec.UnitCube(d)
	for j := 0; j < d; j++ {
		switch variant % 3 {
		case 1:
			b.Lo[j], b.Hi[j] = -2.3+float64(j), 4.9+3*float64(j)
		case 2:
			if j == d-1 {
				b.Lo[j], b.Hi[j] = 0.5, 0.5
			}
		}
	}
	return b
}

// TestCellDirStripe pins the stripe function: in range, monotone over a
// sorted sweep that includes every edge case, exact on the stripe edges of
// the unit interval, and constant on a zero-width dimension.
func TestCellDirStripe(t *testing.T) {
	cd := newCellDir(dirTestBounds(2, 2), nil) // dim 0: [0,1], dim 1: [0.5,0.5]
	xs := []float64{math.Inf(-1), -1, -1e-9, math.Copysign(0, -1), 0, 1e-300, 1 - 1e-16, 1, 1 + 1e-9, 7, math.Inf(1)}
	for k := 0; k <= stripes; k++ {
		e := float64(k) / stripes
		xs = append(xs, math.Nextafter(e, -1), e, math.Nextafter(e, 2))
	}
	sort.Float64s(xs)
	prev := 0
	for _, x := range xs {
		s := cd.stripe(0, x)
		if s < 0 || s >= stripes || s < prev {
			t.Fatalf("stripe(%v) = %d after %d: out of range or not monotone", x, s, prev)
		}
		prev = s
		if want := int(math.Floor(x * stripes)); x >= 0 && x < 1 && s != want {
			t.Fatalf("stripe(%v) = %d, want %d", x, s, want)
		}
		if z := cd.stripe(1, x); z != 0 {
			t.Fatalf("zero-width dimension: stripe(%v) = %d, want 0", x, z)
		}
	}
	if cd.stripe(0, math.Copysign(0, -1)) != 0 || cd.stripe(0, 1) != stripes-1 || cd.stripe(0, math.NaN()) != 0 {
		t.Fatal("stripe of -0.0, the upper bound or NaN is off the grid")
	}
}

// TestCellDirMatchesNaiveModel runs a randomised add/remove sequence against
// the naive model, querying random points, exact
// stripe edges, the bounds' corners and faces, -0.0 and the corners of the
// stored rectangles themselves, and ranges drawn the same way: random
// rectangles with faces on stripe edges and bounds, point rectangles, the
// stored rectangles, the whole space and an empty rectangle. Rectangles are
// ε-padded, so those on the boundary stick out of the data space.
func TestCellDirMatchesNaiveModel(t *testing.T) {
	for variant := 0; variant < 3; variant++ {
		for _, d := range []int{1, 2, 5} {
			rng := rand.New(rand.NewSource(int64(10*variant + d)))
			b := dirTestBounds(variant, d)
			coord := func(j int) float64 {
				switch rng.Intn(6) {
				case 0: // a stripe edge
					return b.Lo[j] + (b.Hi[j]-b.Lo[j])*float64(rng.Intn(stripes+1))/stripes
				case 1: // a face of the data space
					if rng.Intn(2) == 0 {
						return b.Lo[j]
					}
					return b.Hi[j]
				}
				return b.Lo[j] + (b.Hi[j]-b.Lo[j])*rng.Float64()
			}
			cd := newCellDir(b, nil)
			model := map[int]vec.Rect{}
			for step := 0; step < 400; step++ {
				id := rng.Intn(150)
				cd.remove(id)
				delete(model, id)
				if rng.Intn(4) > 0 {
					r := vec.EmptyRect(d)
					for j := 0; j < d; j++ {
						x, y := coord(j), coord(j)
						r.Lo[j], r.Hi[j] = math.Min(x, y)-1e-9, math.Max(x, y)+1e-9
					}
					cd.add(id, r)
					model[id] = r
				}
				if step%10 != 9 {
					continue
				}
				q := make(vec.Point, d)
				for trial := 0; trial < 20; trial++ {
					for j := range q {
						q[j] = coord(j)
					}
					checkDirQuery(t, cd, model, q)
				}
				r := vec.EmptyRect(d)
				checkDirRange(t, cd, model, r)
				for trial := 0; trial < 20; trial++ {
					for j := 0; j < d; j++ {
						x, y := coord(j), coord(j)
						if trial%4 == 3 {
							y = x
						}
						r.Lo[j], r.Hi[j] = math.Min(x, y), math.Max(x, y)
					}
					checkDirRange(t, cd, model, r)
				}
				for _, c := range model {
					checkDirQuery(t, cd, model, vec.Point(c.Lo))
					checkDirQuery(t, cd, model, vec.Point(c.Hi))
					checkDirRange(t, cd, model, c)
				}
				checkDirRange(t, cd, model, b)
				for j := range q {
					q[j] = math.Copysign(0, -1)
				}
				checkDirQuery(t, cd, model, q)
				checkDirRange(t, cd, model, vec.Rect{Lo: q, Hi: q})
				if err := cd.check(b, modelCells(model)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// modelCells lays the model out the way Index.cells is: indexed by id, nil Lo
// where no cell is stored.
func modelCells(model map[int]vec.Rect) []vec.Rect {
	var cells []vec.Rect
	for id, r := range model {
		for len(cells) <= id {
			cells = append(cells, vec.Rect{})
		}
		cells[id] = r
	}
	return cells
}

// FuzzCellDir drives the directory with a byte script against the naive
// model. Byte 0 picks the data space and dimensionality; then each op byte
// adds (replacing) or removes an id's rectangle or queries a point or a
// rectangle, its
// coordinates read from the following bytes on a 1/240 grid that reaches past
// both bounds — so stripe edges, faces and out-of-space values are all one
// byte away. The seed scripts run in normal `go test`.
func FuzzCellDir(f *testing.F) {
	f.Add([]byte{0, 0, 5, 8, 8, 248, 248, 3, 8, 8, 3, 248, 248, 3, 128, 128})
	f.Add([]byte{1, 1, 70, 0, 255, 12, 200, 40, 41, 60, 61, 3, 40, 60, 3, 41, 61, 2, 70, 3, 40, 60})
	f.Add([]byte{5, 0, 1, 8, 23, 38, 53, 68, 83, 3, 23, 38, 53, 0, 65, 100, 100, 100, 101, 101, 101, 3, 100, 100, 100})
	f.Add([]byte{2, 0, 9, 1, 1, 128, 128, 3, 1, 128, 3, 1, 1, 2, 9, 3, 1, 128})
	f.Add([]byte{0, 0, 5, 8, 23, 8, 23, 7, 23, 38, 23, 38, 7, 24, 38, 1, 1, 7, 0, 255, 0, 255, 2, 5, 7, 8, 8, 8, 8})
	f.Add([]byte{7, 4, 3, 8, 68, 8, 68, 8, 68, 128, 248, 128, 248, 128, 248, 7, 68, 128, 68, 128, 69, 127, 7, 100, 100, 100, 100, 100, 100})
	// d = 5 and d = 9: one row, then one more row, past the four-row passes of
	// the fused AND; ids in three and in four words.
	f.Add([]byte{12,
		0, 5, 8, 248, 8, 248, 8, 248, 8, 248, 8, 248,
		0, 70, 8, 128, 8, 128, 8, 128, 8, 128, 8, 128,
		0, 200, 100, 160, 100, 160, 100, 160, 100, 160, 100, 160,
		3, 120, 120, 120, 120, 120,
		3, 200, 200, 200, 200, 60,
		7, 8, 128, 8, 128, 8, 128, 8, 128, 130, 248,
		2, 70,
		3, 100, 100, 100, 100, 100})
	f.Add([]byte{25,
		0, 3, 8, 248, 8, 248, 8, 248, 8, 248, 8, 248, 8, 248, 8, 248, 8, 248, 8, 248,
		0, 130, 8, 128, 8, 128, 8, 128, 8, 128, 8, 128, 8, 128, 8, 128, 8, 128, 120, 248,
		0, 255, 100, 160, 100, 160, 100, 160, 100, 160, 100, 160, 100, 160, 100, 160, 100, 160, 100, 160,
		3, 120, 120, 120, 120, 120, 120, 120, 120, 120,
		3, 120, 120, 120, 120, 120, 120, 120, 120, 119,
		7, 8, 100, 8, 100, 8, 100, 8, 100, 8, 100, 8, 100, 8, 100, 8, 100, 161, 248,
		2, 3,
		3, 120, 120, 120, 120, 120, 120, 120, 120, 130})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		d := 1 + int(script[0]/3)%9
		b := dirTestBounds(int(script[0]), d)
		coord := func(j int, v byte) float64 {
			if v == 1 {
				return math.Copysign(0, -1)
			}
			return b.Lo[j] + (b.Hi[j]-b.Lo[j])*(float64(v)-8)/240
		}
		cd := newCellDir(b, nil)
		model := map[int]vec.Rect{}
		for pos := 1; pos < len(script); {
			op := script[pos]
			pos++
			switch op % 4 {
			case 0, 1: // add id's rectangle, replacing what it had
				if pos+1+2*d > len(script) {
					return
				}
				id := int(script[pos])
				pos++
				r := vec.EmptyRect(d)
				for j := 0; j < d; j++ {
					x, y := coord(j, script[pos]), coord(j, script[pos+1])
					r.Lo[j], r.Hi[j] = math.Min(x, y), math.Max(x, y)
					pos += 2
				}
				cd.remove(id)
				cd.add(id, r)
				model[id] = r
			case 2: // remove id
				if pos >= len(script) {
					return
				}
				cd.remove(int(script[pos]))
				delete(model, int(script[pos]))
				pos++
			case 3: // query: a point, or with the next op bit set a rectangle
				if op&4 != 0 {
					if pos+2*d > len(script) {
						return
					}
					r := vec.EmptyRect(d)
					for j := 0; j < d; j++ {
						x, y := coord(j, script[pos]), coord(j, script[pos+1])
						r.Lo[j], r.Hi[j] = math.Min(x, y), math.Max(x, y)
						pos += 2
					}
					checkDirRange(t, cd, model, r)
					continue
				}
				if pos+d > len(script) {
					return
				}
				q := make(vec.Point, d)
				for j := range q {
					q[j] = coord(j, script[pos+j])
				}
				pos += d
				checkDirQuery(t, cd, model, q)
			}
		}
		for _, r := range model {
			checkDirQuery(t, cd, model, vec.Point(r.Lo))
			checkDirQuery(t, cd, model, vec.Point(r.Hi))
			checkDirRange(t, cd, model, r)
		}
		if err := cd.check(b, modelCells(model)); err != nil {
			t.Fatal(err)
		}
	})
}
