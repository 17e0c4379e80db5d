package nncell

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vec"
)

// checkPointBox compares box(q, r) with the naive model (the coordinates of
// every live id): the survivors must be exactly the ids whose stripe lies, in
// every dimension, between those of q−r and q+r, must include every id whose
// coordinates lie between q−r and q+r as computed, and a box reported whole
// must be the live set.
func checkPointBox(t *testing.T, pd *pointDir, model map[int]vec.Point, q vec.Point, r float64) {
	t.Helper()
	acc, whole := pd.box(nil, q, r)
	got := map[int]bool{}
	for w, word := range acc {
		for ; word != 0; word &= word - 1 {
			got[w<<6|bits.TrailingZeros64(word)] = true
		}
	}
	if whole && len(got) != len(model) {
		t.Fatalf("q=%v r=%v: box reported whole holds %d of %d live ids", q, r, len(got), len(model))
	}
	for id, p := range model {
		rounded, inside := true, true
		for j := range q {
			s := pd.stripe(j, p[j])
			rounded = rounded && (!(r < math.Inf(1)) || (pd.stripe(j, q[j]-r) <= s && s <= pd.stripe(j, q[j]+r)))
			inside = inside && q[j]-r <= p[j] && p[j] <= q[j]+r
		}
		if got[id] != rounded {
			t.Fatalf("q=%v r=%v: id %d at %v survives=%v, its stripes lie in the box's=%v", q, r, id, p, got[id], rounded)
		}
		if inside && !got[id] {
			t.Fatalf("q=%v r=%v: id %d at %v dismissed although it lies between q−r and q+r in every dimension", q, r, id, p)
		}
		delete(got, id)
	}
	for id := range got {
		t.Fatalf("q=%v r=%v: id %d survives but is not live", q, r, id)
	}
}

// checkPointBall is the property the k-NN search rests on: every live point
// whose computed squared distance from q is at most r2 survives the box at
// outwardRadius(r2).
func checkPointBall(t *testing.T, pd *pointDir, model map[int]vec.Point, q vec.Point, r2 float64) {
	t.Helper()
	acc, _ := pd.box(nil, q, outwardRadius(r2))
	for id, p := range model {
		if d2 := vec.Dist2Flat(q, p); d2 <= r2 && acc[id>>6]>>(id&63)&1 == 0 {
			t.Fatalf("q=%v r2=%v: id %d at %v (Dist2 %v) is in the ball but not in the box", q, r2, id, p, d2)
		}
	}
}

// pointDirSnapshot copies the rows of ix's point directory, and
// assertPointDirIs checks them against such a copy bit for bit: what a
// rolled-back mutation owes the directory. Words a rolled-back append left
// behind must be zero.
func pointDirSnapshot(ix *Index) [][]uint64 {
	snap := make([][]uint64, len(ix.pdir.le))
	for k, row := range ix.pdir.le {
		snap[k] = slices.Clone(row)
	}
	return snap
}

func assertPointDirIs(t *testing.T, ix *Index, snap [][]uint64) {
	t.Helper()
	if err := compareRows("point", ix.pdir.le, snap, "before the failed mutation it was"); err != nil {
		t.Fatal(err)
	}
}

// modelFlat lays the model out the way Index.ptsFlat is: d coordinates per
// id, a NaN row where no point is live.
func modelFlat(model map[int]vec.Point, d int) []float64 {
	var flat []float64
	for id, p := range model {
		for len(flat) < (id+1)*d {
			flat = append(flat, math.NaN())
		}
		copy(flat[id*d:], p)
	}
	return flat
}

// TestPointDirMatchesNaiveModel runs a randomised set/clear sequence against
// the naive model in the three data spaces of the directory tests, with points
// and box centres on stripe edges, the faces of the data space and ±0.0, radii
// from 0 (the box is q's grid cell) through stripe multiples to +Inf, the
// empty directory, and the ball-in-box property at the distances of the stored
// points themselves.
func TestPointDirMatchesNaiveModel(t *testing.T) {
	for variant := 0; variant < 3; variant++ {
		for _, d := range []int{1, 2, 5} {
			rng := rand.New(rand.NewSource(int64(100 + 10*variant + d)))
			b := dirTestBounds(variant, d)
			coord := func(j int) float64 {
				switch rng.Intn(7) {
				case 0: // a stripe edge
					return b.Lo[j] + (b.Hi[j]-b.Lo[j])*float64(rng.Intn(stripes+1))/stripes
				case 1: // a face of the data space
					if rng.Intn(2) == 0 {
						return b.Lo[j]
					}
					return b.Hi[j]
				case 2:
					return math.Copysign(0, -1)
				}
				return b.Lo[j] + (b.Hi[j]-b.Lo[j])*rng.Float64()
			}
			radius := func() float64 {
				switch rng.Intn(6) {
				case 0:
					return 0
				case 1:
					return math.Inf(1)
				case 2: // a whole number of stripes of dimension 0
					return (b.Hi[0] - b.Lo[0]) * float64(rng.Intn(stripes+2)) / stripes
				}
				return (b.Hi[0] - b.Lo[0]) * rng.Float64() * rng.Float64()
			}
			pd := newPointDir(newStripeGrid(b), nil)
			model := map[int]vec.Point{}
			q := make(vec.Point, d)
			checkPointBox(t, pd, model, q, 1)
			checkPointBox(t, pd, model, q, math.Inf(1))
			for step := 0; step < 400; step++ {
				id := rng.Intn(150)
				pd.clear(id)
				delete(model, id)
				if rng.Intn(4) > 0 {
					p := make(vec.Point, d)
					for j := range p {
						p[j] = coord(j)
					}
					pd.set(id, p)
					model[id] = p
				}
				if step%10 != 9 {
					continue
				}
				for trial := 0; trial < 20; trial++ {
					for j := range q {
						q[j] = coord(j)
						if trial%5 == 4 { // outside the data space
							q[j] += (b.Hi[j] - b.Lo[j] + 1) * float64(rng.Intn(3)-1)
						}
					}
					checkPointBox(t, pd, model, q, radius())
					checkPointBall(t, pd, model, q, radius())
				}
				var prev vec.Point
				for _, p := range model {
					checkPointBox(t, pd, model, p, 0)
					if prev != nil {
						checkPointBall(t, pd, model, p, vec.Dist2Flat(p, prev))
					}
					prev = p
				}
				if err := pd.check(modelFlat(model, d)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestOutwardRadiusCoversUnderflow: a squared difference too small for a
// float64 vanishes from the computed distance, so in a data space of that
// scale a point at a computed squared distance of 0 can sit stripes away from
// q; the absolute term of outwardRadius keeps it in the box all the same.
func TestOutwardRadiusCoversUnderflow(t *testing.T) {
	b := vec.UnitCube(2)
	b.Hi[0], b.Hi[1] = 1e-170, 1e-170
	pd := newPointDir(newStripeGrid(b), nil)
	p, q := vec.Point{1e-171, 0}, vec.Point{0, 0}
	pd.set(0, p)
	if d2 := vec.Dist2Flat(q, p); d2 != 0 || pd.stripe(0, p[0]) == pd.stripe(0, q[0]) {
		t.Fatalf("the fixture does not underflow across a stripe edge: Dist2 %v, stripes %d and %d",
			d2, pd.stripe(0, p[0]), pd.stripe(0, q[0]))
	}
	checkPointBall(t, pd, map[int]vec.Point{0: p}, q, 0)
}

// FuzzPointDir drives the point directory with a byte script against the
// naive model. Byte 0 picks the data space and dimensionality; then each op
// byte sets (replacing) or clears an id or asks for a box, coordinates read
// from the following bytes on a 1/240 grid that reaches past both bounds (1 is
// −0.0) and the radius from one more byte: 0 the grid cell of q, 255 the whole
// grid, otherwise a multiple of 1/240 of dimension 0's extent — so stripe
// edges, faces, zero-width dimensions and empty and whole-grid boxes are all
// one byte away. The seed scripts run in normal `go test`.
func FuzzPointDir(f *testing.F) {
	f.Add([]byte{0, 0, 5, 8, 248, 0, 6, 128, 128, 3, 8, 248, 0, 3, 8, 248, 255})
	f.Add([]byte{1, 0, 70, 0, 255, 0, 71, 23, 38, 3, 23, 38, 15, 2, 70, 3, 0, 255, 240})
	f.Add([]byte{5, 0, 1, 8, 23, 38, 0, 2, 9, 24, 39, 3, 8, 23, 38, 1, 3, 9, 24, 39, 0})
	f.Add([]byte{2, 0, 9, 1, 1, 0, 10, 128, 1, 3, 1, 128, 0, 3, 1, 1, 255, 2, 9, 3, 1, 128, 60})
	f.Add([]byte{7, 0, 3, 68, 128, 8, 0, 4, 69, 127, 248, 3, 68, 128, 8, 1, 3, 100, 100, 100, 120})
	f.Add([]byte{0, 3, 128, 128, 255, 3, 128, 128, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		d := 1 + int(script[0]/3)%4
		b := dirTestBounds(int(script[0]), d)
		coord := func(j int, v byte) float64 {
			if v == 1 {
				return math.Copysign(0, -1)
			}
			return b.Lo[j] + (b.Hi[j]-b.Lo[j])*(float64(v)-8)/240
		}
		point := func(bytes []byte) vec.Point {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = coord(j, bytes[j])
			}
			return p
		}
		pd := newPointDir(newStripeGrid(b), nil)
		model := map[int]vec.Point{}
		for pos := 1; pos < len(script); {
			op := script[pos]
			pos++
			switch op % 4 {
			case 0, 1: // set id, replacing where it was
				if pos+1+d > len(script) {
					return
				}
				id, p := int(script[pos]), point(script[pos+1:])
				pos += 1 + d
				pd.clear(id)
				pd.set(id, p)
				model[id] = p
			case 2: // clear id
				if pos >= len(script) {
					return
				}
				pd.clear(int(script[pos]))
				delete(model, int(script[pos]))
				pos++
			case 3: // box
				if pos+d+1 > len(script) {
					return
				}
				q, rb := point(script[pos:]), script[pos+d]
				pos += d + 1
				r := (b.Hi[0] - b.Lo[0]) * float64(rb) / 240
				if rb == 255 {
					r = math.Inf(1)
				}
				checkPointBox(t, pd, model, q, r)
				checkPointBall(t, pd, model, q, r*r)
			}
		}
		for _, p := range model {
			checkPointBox(t, pd, model, p, 0)
		}
		if err := pd.check(modelFlat(model, d)); err != nil {
			t.Fatal(err)
		}
	})
}
