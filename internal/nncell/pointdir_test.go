package nncell

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// checkPointBox compares box(q, r) with the naive model (the coordinates of
// every live id): the survivors must be exactly the ids whose stripe lies, in
// every dimension, between those of q−r and q+r, must include every id whose
// coordinates lie between q−r and q+r as computed, and a box reported whole
// must be the live set.
func checkPointBox(t *testing.T, pd *pointDir, model map[int]vec.Point, q vec.Point, r float64) {
	t.Helper()
	acc, whole := pd.box(new(dirScratch), nil, q, r, nil)
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
	acc, _ := pd.box(new(dirScratch), nil, q, outwardRadius(r2), nil)
	for id, p := range model {
		if d2 := vec.Dist2Flat(q, p); d2 <= r2 && acc[id>>6]>>(id&63)&1 == 0 {
			t.Fatalf("q=%v r2=%v: id %d at %v (Dist2 %v) is in the ball but not in the box", q, r2, id, p, d2)
		}
	}
}

// checkPointSearch runs the seedless search — the one cell construction makes:
// nothing seen, the density start — for the k points nearest to q and compares
// it with the sorted model, ids and Dist2 bit for bit in (Dist2, ID) order;
// what it folded must be what it marked seen plus its last box.
func checkPointSearch(t *testing.T, pd *pointDir, model map[int]vec.Point, q vec.Point, k int) {
	t.Helper()
	if k = min(k, len(model)); k == 0 {
		return
	}
	var want []Neighbor
	for id, p := range model {
		want = append(want, Neighbor{ID: id, Dist2: vec.Dist2Flat(q, p)})
	}
	slices.SortFunc(want, func(a, b Neighbor) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	r2 := math.Inf(1)
	if k < len(model) {
		r2 = pd.densityR2(k, len(model))
	}
	ds := dirScratch{seen: make([]uint64, len(pd.le[0]))}
	got, folded, _, _ := pd.search(&ds, nil, k, q, modelFlat(model, len(q)), r2, math.Inf(1))
	if !slices.Equal(got, want[:k]) { // search's list is the answer, ascending by (Dist2, ID) as it stands
		t.Fatalf("q=%v k=%d of %d from r2=%v:\n got %v\nwant %v", q, k, len(model), r2, got, want[:k])
	}
	// seen marks what the passes before the last folded (search updates it
	// only for a pass to come), and the last box is what that pass folded,
	// masked by seen: together, every point folded exactly once.
	seen := 0
	for w, word := range ds.seen {
		seen += bits.OnesCount64(word) + bits.OnesCount64(ds.box[w])
		if word&ds.box[w] != 0 {
			t.Fatalf("q=%v k=%d of %d: the last pass folded seen points %x", q, k, len(model), word&ds.box[w])
		}
	}
	if folded != seen || folded < k || folded > len(model) {
		t.Fatalf("q=%v k=%d of %d: folded %d points, marked %d seen or in the last box", q, k, len(model), folded, seen)
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
// empty directory, the ball-in-box property at the distances of the stored
// points themselves, and the seedless search for 1 to 129 neighbours.
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
					checkPointSearch(t, pd, model, q, 1+rng.Intn(129))
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
// one byte away. The same byte, mod 129, plus one is the k of a seedless search
// from q. The seed scripts run in normal `go test`.
func FuzzPointDir(f *testing.F) {
	f.Add([]byte{0, 0, 5, 8, 248, 0, 6, 128, 128, 3, 8, 248, 0, 3, 8, 248, 255})
	f.Add([]byte{1, 0, 70, 0, 255, 0, 71, 23, 38, 3, 23, 38, 15, 2, 70, 3, 0, 255, 240})
	f.Add([]byte{5, 0, 1, 8, 23, 38, 0, 2, 9, 24, 39, 3, 8, 23, 38, 1, 3, 9, 24, 39, 0})
	f.Add([]byte{2, 0, 9, 1, 1, 0, 10, 128, 1, 3, 1, 128, 0, 3, 1, 1, 255, 2, 9, 3, 1, 128, 60})
	f.Add([]byte{7, 0, 3, 68, 128, 8, 0, 4, 69, 127, 248, 3, 68, 128, 8, 1, 3, 100, 100, 100, 120})
	f.Add([]byte{0, 3, 128, 128, 255, 3, 128, 128, 0})
	// d = 5 and d = 9: upper and lower rows past the four-row passes of the
	// fused AND, in every tail length a box's mix of clipped dimensions gives.
	f.Add([]byte{12,
		0, 5, 8, 23, 38, 53, 68,
		0, 70, 128, 128, 128, 128, 128,
		0, 200, 130, 126, 128, 131, 127,
		3, 128, 128, 128, 128, 128, 10,
		3, 128, 128, 128, 128, 240, 60,
		3, 128, 128, 128, 128, 128, 255,
		2, 70,
		3, 8, 23, 38, 53, 68, 0})
	f.Add([]byte{25,
		0, 3, 8, 23, 38, 53, 68, 83, 98, 113, 128,
		0, 130, 128, 128, 128, 128, 128, 128, 128, 128, 128,
		0, 255, 130, 126, 128, 131, 127, 129, 128, 125, 132,
		3, 128, 128, 128, 128, 128, 128, 128, 128, 128, 12,
		3, 20, 128, 240, 128, 20, 128, 240, 128, 128, 40,
		3, 128, 128, 128, 128, 128, 128, 128, 128, 128, 255,
		2, 130,
		3, 8, 23, 38, 53, 68, 83, 98, 113, 128, 0})
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
				checkPointSearch(t, pd, model, q, 1+int(rb)%129)
			}
		}
		for _, p := range model {
			checkPointBox(t, pd, model, p, 0)
			checkPointSearch(t, pd, model, p, 2)
		}
		if err := pd.check(modelFlat(model, d)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDuplicateCheckOnDirectory: a write's duplicate check reads the point
// directory — the points of the new point's grid cell, compared bit for bit.
// An exact duplicate is rejected whatever the constraint selection, alone or
// inside a batch, against the snapshot or against the batch itself; −0.0 and
// +0.0 are different coordinates, so the twin of a stored point goes in (once);
// and a deleted point's coordinates are free again. A rejected write leaves no
// trace.
func TestDuplicateCheckOnDirectory(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, alg := range Algorithms() {
		pts := uniquePoints(t, dataset.NameUniform, 95, 40, 2)
		pts = append(pts, vec.Point{0, 0.5}, vec.Point{0.25, 0.25}, vec.Point{1, 1}, vec.Point{0.5, 0})
		ix := mustBuild(t, pts, Options{Algorithm: alg})
		cc := newCellCtx(2)
		rejected := func(what string, err error, snap [][]uint64, n int) {
			t.Helper()
			if err == nil {
				t.Fatalf("%v: %s accepted", alg, what)
			}
			assertPointDirIs(t, ix, snap)
			if ix.Len() != n {
				t.Fatalf("%v: %s left %d points, %d before", alg, what, ix.Len(), n)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("%v: after %s: %v", alg, what, err)
			}
		}

		snap, n := pointDirSnapshot(ix), ix.Len()
		for i, p := range pts {
			if !ix.hasDuplicate(cc, p) {
				t.Fatalf("%v: stored point %d = %v not found", alg, i, p)
			}
			_, err := ix.Insert(p.Clone())
			rejected("a stored point", err, snap, n)
			// Same grid cell, one bit away in one coordinate.
			near := p.Clone()
			near[i%2] = math.Nextafter(near[i%2], 0.5)
			if ix.hasDuplicate(cc, near) {
				t.Fatalf("%v: %v taken for a duplicate of %v", alg, near, p)
			}
		}
		_, err := ix.InsertBatch([]vec.Point{{0.3, 0.7}, {1, 1}})
		rejected("a batch holding a stored point", err, snap, n)
		_, err = ix.InsertBatch([]vec.Point{{0.3, 0.7}, {0.6, 0.1}, {0.3, 0.7}})
		rejected("a batch holding a point twice", err, snap, n)

		twin := vec.Point{negZero, 0.5}
		if ix.hasDuplicate(cc, twin) {
			t.Fatalf("%v: −0.0 taken for +0.0", alg)
		}
		id, err := ix.Insert(twin)
		if err != nil {
			t.Fatalf("%v: the −0.0 twin of a stored point: %v", alg, err)
		}
		if got, _ := ix.Point(id); math.Float64bits(got[0]) != math.Float64bits(negZero) {
			t.Fatalf("%v: stored %v for the −0.0 twin", alg, got)
		}
		snap, n = pointDirSnapshot(ix), ix.Len()
		_, err = ix.Insert(twin)
		rejected("the twin a second time", err, snap, n)
		if _, err := ix.InsertBatch([]vec.Point{{0.5, negZero}, {negZero, negZero}}); err != nil {
			t.Fatalf("%v: a batch of twins: %v", alg, err)
		}

		if err := ix.Delete(41); err != nil { // (0.25, 0.25)
			t.Fatal(err)
		}
		if ix.hasDuplicate(cc, pts[41]) {
			t.Fatalf("%v: a deleted point still counts as stored", alg)
		}
		if _, err := ix.Insert(pts[41]); err != nil {
			t.Fatalf("%v: re-insert of a deleted point: %v", alg, err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		checkThreeWay(t, ix, rand.New(rand.NewSource(96)), 40, alg.String())
	}
}

// TestHidePointOnDirectory: the point directory says whether an id is held. A
// dead id, a negative one, one past the slots and one past the rows are "not
// held" and touch nothing — not alive, not a bit, not a coordinate — and
// Delete and DeleteBatch report them unknown; a held id is hidden and comes
// back bit for bit.
func TestHidePointOnDirectory(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 97, 70, 3)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	snap, n, flat := pointDirSnapshot(ix), ix.Len(), slices.Clone(ix.ptsFlat)
	same := func(what string) {
		t.Helper()
		assertPointDirIs(t, ix, snap)
		if ix.alive != n || ix.Len() != n {
			t.Fatalf("%s: alive %d, was %d", what, ix.alive, n)
		}
		if !slices.EqualFunc(ix.ptsFlat, flat, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: coordinates changed", what)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, id := range []int{5, -1, -64, len(pts), len(pts) + 1, 127, 128, 1 << 40, math.MinInt} {
		if p, ok := ix.hidePoint(id); ok || p != nil {
			t.Fatalf("hidePoint(%d) = %v, %v on an id the index does not hold", id, p, ok)
		}
		same(fmt.Sprintf("hidePoint(%d)", id))
		if err := ix.Delete(id); err == nil || !strings.Contains(err.Error(), "unknown id") {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ix.DeleteBatch([]int{7, id}); err == nil || !strings.Contains(err.Error(), "unknown id") {
			t.Fatalf("DeleteBatch(7, %d): %v", id, err)
		}
		same(fmt.Sprintf("Delete(%d)", id))
	}
	if err := ix.DeleteBatch([]int{7, 8, 7}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("DeleteBatch(7, 8, 7): %v", err)
	}
	same("DeleteBatch(7, 8, 7)")

	p, ok := ix.hidePoint(7)
	if !ok || !slices.Equal(p, pts[7]) {
		t.Fatalf("hidePoint(7) = %v, %v; the point is %v", p, ok, pts[7])
	}
	if ix.alive != n-1 || ix.pdir.holds(7) || ix.point(7) != nil {
		t.Fatalf("after hidePoint(7): alive %d of %d, held %v, row %v", ix.alive, n, ix.pdir.holds(7), ix.point(7))
	}
	ix.unhidePoint(7, p)
	same("hidePoint and unhidePoint")
}
