package nncell

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lp"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// paperNNDirectionPicks is the paper's NN-Direction selection as this package
// implemented it before the whole pool became the constraint set: from the
// neighbor pool of point i, per axis direction, the nearest point and the
// point with the smallest angular deviation from the axis (≤ 4·d ids).
func paperNNDirectionPicks(ix *Index, i int, pool []int) []int {
	p := ix.point(i)
	d := ix.dim
	type pick struct {
		nearest, axial int
		nearD, axialD  float64
	}
	picks := make([]pick, 2*d)
	for k := range picks {
		picks[k] = pick{nearest: -1, axial: -1, nearD: math.Inf(1), axialD: math.Inf(1)}
	}
	for _, id := range pool {
		q := ix.point(id)
		d2 := vec.Euclidean{}.Dist2(p, q)
		for j := 0; j < d; j++ {
			comp := q[j] - p[j]
			if comp == 0 {
				continue
			}
			slot := 2 * j
			if comp < 0 {
				slot++
			}
			if d2 < picks[slot].nearD {
				picks[slot].nearD, picks[slot].nearest = d2, id
			}
			// Angular deviation from the axis: sin²θ = 1 − comp²/‖q−p‖².
			if dev := 1 - comp*comp/d2; d2 > 0 && dev < picks[slot].axialD {
				picks[slot].axialD, picks[slot].axial = dev, id
			}
		}
	}
	seen := map[int]bool{}
	var ids []int
	for _, pk := range picks {
		for _, id := range []int{pk.nearest, pk.axial} {
			if id >= 0 && !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// TestNNDirectionPoolTighterThanPicks checks the Lemma-1 argument behind
// constraining each cell with its whole neighbor pool: the pool is a superset
// of the paper's direction picks, so every stored MBR lies inside the MBR the
// picks alone produce for the same cell (tighter, never looser), stays a
// superset of the true cell (NN answers equal the scan oracle), and in d = 8
// is strictly tighter for most cells.
func TestNNDirectionPoolTighterThanPicks(t *testing.T) {
	const n, d = 2000, 8
	pts := uniquePoints(t, dataset.NameUniform, 131, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})

	cc, ref := newCellCtx(d), newCellCtx(d)
	tighter := 0
	for i := range pts {
		pool := append([]int(nil), ix.nnDirectionPoints(cc, i)...)
		picks := paperNNDirectionPicks(ix, i, pool)
		if len(picks) > 4*d || len(picks) >= len(pool) {
			t.Fatalf("cell %d: %d picks from a pool of %d", i, len(picks), len(pool))
		}
		mbr, err := ix.solveMBR(ref, pts[i], ix.bisectors(ref, pts[i], picks))
		if err != nil {
			t.Fatal(err)
		}
		loose := ix.finishRect(mbr)
		stored := ix.cells.rect(i)
		for j := 0; j < d; j++ {
			// Both sides carry the same epsilon padding; the slack absorbs LP
			// round-off between two solves of different constraint sets.
			if stored.Lo[j] < loose.Lo[j]-1e-9 || stored.Hi[j] > loose.Hi[j]+1e-9 {
				t.Fatalf("cell %d dim %d: stored [%v, %v] not inside pick-based [%v, %v]",
					i, j, stored.Lo[j], stored.Hi[j], loose.Lo[j], loose.Hi[j])
			}
		}
		if stored.Volume() < 0.99*loose.Volume() {
			tighter++
		}
	}
	if tighter < n/2 {
		t.Fatalf("only %d of %d cells are tighter than their pick-based MBR", tighter, n)
	}

	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 500; trial++ {
		q := randQuery(rng, d)
		wantID, wantD2 := oracle.Nearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != wantID || got.Dist2 != wantD2 {
			t.Fatalf("trial %d: got %+v, scan says id %d dist2 %v", trial, got, wantID, wantD2)
		}
	}
	if fb := ix.Stats().Fallbacks; fb != 0 {
		t.Fatalf("%d in-bounds queries fell back", fb)
	}
}

// degeneratePoints draws n distinct points whose coordinates mostly collide:
// the faces of the unit cube, −0.0, stripe edges, a five-value lattice, and
// now and then a free value. Many share a coordinate, many a distance, and a
// +0.0/−0.0 pair is at distance 0 from each other without being a duplicate.
func degeneratePoints(rng *rand.Rand, n, d int) []vec.Point {
	var pts []vec.Point
	for len(pts) < n {
		p := make(vec.Point, d)
		for j := range p {
			switch rng.Intn(6) {
			case 0:
				p[j] = float64(rng.Intn(2))
			case 1:
				p[j] = math.Copysign(0, -1)
			case 2:
				p[j] = float64(rng.Intn(stripes+1)) / stripes
			case 3, 4:
				p[j] = float64(rng.Intn(5)) / 4
			default:
				p[j] = rng.Float64()
			}
		}
		pts = append(pts, p)
		pts = dedupBits(pts)
	}
	return pts
}

// dedupBits drops the last point if an earlier one has the same bit patterns.
func dedupBits(pts []vec.Point) []vec.Point {
	last := pts[len(pts)-1]
	for _, p := range pts[:len(pts)-1] {
		if slices.EqualFunc(p, last, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return pts[:len(pts)-1]
		}
	}
	return pts
}

// pointsOnly is an index the way Build has it when constraint selection
// starts: coordinates and the point directory, no cell yet.
func pointsOnly(pts []vec.Point) *Index {
	d := pts[0].Dim()
	ix := &Index{dim: d, bounds: vec.UnitCube(d), alive: len(pts), pg: newTestPager()}
	for _, p := range pts {
		ix.ptsFlat = append(ix.ptsFlat, p...)
	}
	ix.pdir = newPointDir(newStripeGrid(ix.bounds), ix.ptsFlat)
	return ix
}

// scanOthers is the oracle of the neighbour searches: every live point but i
// with its squared distance from point i, ascending by (Dist2, ID).
func (ix *Index) scanOthers(i int) []Neighbor {
	var all []Neighbor
	for id := 0; id*ix.dim < len(ix.ptsFlat); id++ {
		if p := ix.point(id); p != nil && id != i {
			all = append(all, Neighbor{ID: id, Dist2: vec.Dist2Flat(ix.point(i), p)})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
	return all
}

// checkNeighborSearches compares, for every live point, the directory's
// neighbour search with the sorted scan — ids and Dist2 bit for bit, at k = 1
// (initialRadius), the NN-Direction pool size, alive − 1 and past it — then
// the pool with the data X-tree's k-NN the directory replaced (equal distances;
// equal ids short of a tie at the cut), and pointsWithin with the scan at
// radius 0, one stripe and the whole space.
func checkNeighborSearches(t *testing.T, ix *Index, label string) {
	t.Helper()
	d := ix.dim
	cc := newCellCtx(d)
	var items []xtree.Entry
	for id := 0; id*d < len(ix.ptsFlat); id++ {
		if p := ix.point(id); p != nil {
			items = append(items, xtree.Entry{Rect: vec.Rect{Lo: p, Hi: p}, Data: int64(id)})
		}
	}
	tree := xtree.BulkLoad(d, newTestPager(), xtree.Options{}, items)
	var tc xtree.QueryCtx
	pool := min(max(8*d, 16), 128)
	candidates := ix.Stats().Candidates
	for i := 0; i*d < len(ix.ptsFlat); i++ {
		if ix.point(i) == nil {
			continue
		}
		all := ix.scanOthers(i)
		for _, k := range []int{1, pool, len(all), len(all) + 3} {
			got, want := ix.nearestOthers(cc, i, k), all[:min(k, len(all))]
			if !slices.Equal(got, want) {
				t.Fatalf("%s: point %d k=%d:\n got %v\nwant %v", label, i, k, got, want)
			}
		}
		want := all[:min(pool, len(all))]
		ids := ix.nnDirectionPoints(cc, i)
		if len(ids) != len(want) {
			t.Fatalf("%s: point %d: pool of %d, scan says %d", label, i, len(ids), len(want))
		}
		for k, id := range ids {
			if id != want[k].ID {
				t.Fatalf("%s: point %d: pool id %d at rank %d, scan says %d", label, i, id, k, want[k].ID)
			}
		}
		nbrs := tree.KNearestCtx(&tc, ix.point(i), len(all)+1, nil) // i itself comes first or among the ties at 0
		ref := make([]Neighbor, 0, len(nbrs))
		for _, nb := range nbrs {
			if int(nb.Entry.Data) != i {
				ref = append(ref, Neighbor{ID: int(nb.Entry.Data), Dist2: nb.Dist2})
			}
		}
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].Less(ref[b]) })
		if !slices.Equal(ref, all) {
			t.Fatalf("%s: point %d: the data X-tree's neighbours differ from the scan's", label, i)
		}

		for _, radius := range []float64{0, 1.0 / stripes, math.Sqrt(float64(d)) + 1} {
			var inBall []int
			for _, nb := range all {
				if nb.Dist2 <= radius*radius {
					inBall = append(inBall, nb.ID)
				}
			}
			sort.Ints(inBall)
			ids, whole := ix.pointsWithin(cc, i, radius)
			if !slices.Equal(ids, inBall) || whole != (len(inBall) == len(all)) {
				t.Fatalf("%s: point %d radius %v: got %v (all=%v), scan says %v of %d", label, i, radius, ids, whole, inBall, len(all))
			}
		}
	}
	if got := ix.Stats().Candidates; got != candidates {
		t.Fatalf("%s: construction-time searches moved Stats().Candidates by %d", label, got-candidates)
	}
}

// TestNeighborSearchesMatchScan: the point directory answers what the data
// X-tree answered — the NN-Direction pool, Correct's first radius and its
// pruning ranges — exactly as a scan does, on uniform, clustered and
// degenerate points, with no cell in the index (where Build stands when it
// asks), with tombstones, and in a served index after inserts and deletes.
func TestNeighborSearchesMatchScan(t *testing.T) {
	for _, d := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(700 + d)))
		n := 260
		if d == 1 {
			n = 90 // the degenerate values of one dimension run out
		}
		inputs := map[string][]vec.Point{
			"uniform":    uniquePoints(t, dataset.NameUniform, int64(710+d), n, d),
			"clustered":  uniquePoints(t, dataset.NameClustered, int64(720+d), n, d),
			"degenerate": degeneratePoints(rng, n, d),
		}
		for name, pts := range inputs {
			label := fmt.Sprintf("d=%d %s", d, name)
			ix := pointsOnly(pts)
			checkNeighborSearches(t, ix, label+" at build")
			for _, id := range rng.Perm(len(pts))[:len(pts)/3] {
				ix.bury(id)
				ix.alive--
			}
			checkNeighborSearches(t, ix, label+" with tombstones")
		}

		// A few points only: every k is past alive, the density start is wider
		// than the space.
		for _, few := range []int{1, 2, 5} {
			checkNeighborSearches(t, pointsOnly(inputs["degenerate"][:few]), fmt.Sprintf("d=%d %d points", d, few))
		}

		if d == 1 {
			continue // NN-Direction needs no second served case here
		}
		pts, extra := inputs["uniform"][:120], inputs["degenerate"][:40]
		ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
		for k, p := range extra {
			if _, err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
			if err := ix.Delete(3 * k); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.InsertBatch(inputs["clustered"][:20]); err != nil {
			t.Fatal(err)
		}
		if err := ix.DeleteBatch([]int{1, 2, 121, 125}); err != nil {
			t.Fatal(err)
		}
		checkNeighborSearches(t, ix, fmt.Sprintf("d=%d after inserts and deletes", d))
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// The warm neighbour searches of cell construction allocate nothing — their
// bitsets, heap and id list live on the cellCtx — which is what keeps a repair
// worker, and a build past its first cells, at the allocations of its output.
func TestNeighborSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, d = 600, 4
	pts := uniquePoints(t, dataset.NameUniform, 730, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	cc := newCellCtx(d)
	i := 0
	searches := func() {
		i = (i + 37) % n
		if len(ix.nnDirectionPoints(cc, i)) != 8*d || ix.initialRadius(cc, i) <= 0 {
			t.Fatalf("point %d: short pool or no neighbour", i)
		}
		if ids, all := ix.pointsWithin(cc, i, 0.3); len(ids) == 0 || all {
			t.Fatalf("point %d: %d points within 0.3, all=%v", i, len(ids), all)
		}
		if !ix.hasDuplicate(cc, pts[i]) {
			t.Fatalf("point %d not found", i)
		}
	}
	searches()
	ix.pointsWithin(cc, 0, 3) // the id list at its largest
	if avg := testing.AllocsPerRun(200, searches); avg != 0 {
		t.Fatalf("the neighbour searches allocate %v times per cell on the warm path", avg)
	}
}

// Every extent solveMBR certifies instead of solving is the box bound that
// lp.Maximize finds for it over the same constraints, to within the padding
// finishRect adds, so the stored row is the one a solve gives: NN-Direction
// and Correct cells at d = 4 and 8, in the unit cube and in a box of other
// extents. Some extents must be certified, or the test shows nothing.
func TestCertifiedExtentsAreBoxBounds(t *testing.T) {
	for _, tc := range []struct {
		alg  Algorithm
		d, n int
		box  vec.Rect
	}{
		{NNDirection, 4, 400, vec.UnitCube(4)},
		{NNDirection, 8, 300, vec.UnitCube(8)},
		{Correct, 4, 200, vec.NewRect(vec.Point{-3, 0, 10, 0.5}, vec.Point{5, 0.25, 12, 0.75})},
	} {
		ix := buildInBox(t, tc.box, int64(tc.d), tc.n, tc.alg)
		cc := newCellCtx(tc.d)
		certified, extents := 0, 0
		c := make([]float64, tc.d)
		for i := 0; i < tc.n; i++ {
			mbr, cons, err := ix.solveCell(cc, i)
			if err != nil {
				t.Fatal(err)
			}
			for face, skipped := range cc.certified {
				extents++
				if !skipped {
					continue
				}
				certified++
				j, sign := face/2, float64(1-2*(face%2))
				c[j] = sign
				res, err := lp.Maximize(&lp.Problem{NumVars: tc.d, Cons: cons, Lo: tc.box.Lo, Hi: tc.box.Hi}, c)
				c[j] = 0
				if err != nil {
					t.Fatal(err)
				}
				got, bound := mbr.Hi[j], tc.box.Hi[j]
				if sign < 0 {
					got, bound = -mbr.Lo[j], -tc.box.Lo[j]
				}
				if got != bound || math.Abs(res.Value-bound) > epsilon {
					t.Fatalf("%v d=%d cell %d: extent %+g·e_%d certified at %v, the box bound %v; lp.Maximize finds %v",
						tc.alg, tc.d, i, sign, j, got, bound, res.Value)
				}
			}
		}
		if certified == 0 {
			t.Fatalf("%v d=%d: none of %d extents certified", tc.alg, tc.d, extents)
		}
		t.Logf("%v d=%d: %d of %d extents certified", tc.alg, tc.d, certified, extents)
	}
}
