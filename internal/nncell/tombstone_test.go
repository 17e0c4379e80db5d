package nncell

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vec"
)

// The coordinate store ptsFlat keeps a row for every id ever allocated,
// including tombstones; Delete never compacts it. This test proves the
// documented invariant that no query path can resolve a tombstoned id through
// that row: after deleting a third of the points it overwrites every tombstone
// row with the exact query point, so any path that consulted it would report a
// dead id at distance 0 — an unbeatable, unmistakable answer. Every
// entry point (the cell-directory fold, the paged NearestCandidate, the
// out-of-bounds fallback, KNearest for k = 1 and k > 1, Candidates) must
// still answer from the live set only.
//
// Reachability is impossible by construction: Delete clears the cell's bit
// in every directory row and drops its fragments (removeFragments), from
// which alone the paged tree is derived, and takes the point out of the data
// tree, so no reader ever arrives at a dead id. The test asserts the first of
// these directly — a deleted id has no bit — and the NaN poisoning Delete
// performs is defense in depth on top of this proof, not the fix for a
// reachable bug.
func TestTombstoneCoordsUnreachable(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, dataset.NameUniform, 301, 240, d)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})

	var dead []int
	for id := 0; id < len(pts); id += 3 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, id)
	}
	deadSet := make(map[int]bool, len(dead))
	for _, id := range dead {
		deadSet[id] = true
		for k, row := range ix.dir.rows {
			if row[id>>6]>>(id&63)&1 != 0 {
				t.Fatalf("deleted id %d still has its bit in directory row %d", id, k)
			}
		}
	}
	var live []vec.Point
	for id := range pts {
		if p, ok := ix.Point(id); ok {
			live = append(live, p)
		}
	}
	oracle := scan.New(live, vec.Euclidean{}, newTestPager())

	poison := func(q vec.Point) {
		for _, id := range dead {
			copy(ix.ptsFlat[id*d:(id+1)*d], q)
		}
	}
	check := func(trial int, q vec.Point, nb Neighbor) {
		t.Helper()
		if deadSet[nb.ID] {
			t.Fatalf("trial %d: query %v resolved tombstoned id %d", trial, q, nb.ID)
		}
		if _, ok := ix.Point(nb.ID); !ok {
			t.Fatalf("trial %d: query %v returned non-live id %d", trial, q, nb.ID)
		}
		if _, want := oracle.Nearest(q); math.Abs(nb.Dist2-want) > 1e-12 {
			t.Fatalf("trial %d: dist² %v, oracle %v", trial, nb.Dist2, want)
		}
	}

	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 60; trial++ {
		// In-bounds queries drive the directory fold and the paged
		// NearestCandidate; every third trial steps outside the data space
		// to drive the clamp-and-verify fallback (which also reads the
		// coordinate store).
		q := randQuery(rng, d)
		if trial%3 == 2 {
			q[trial%d] += 1.5
		}
		poison(q)

		for _, query := range []func(vec.Point) (Neighbor, error){ix.NearestNeighbor, ix.NearestNeighborPaged} {
			nb, err := query(q)
			if err != nil {
				t.Fatal(err)
			}
			check(trial, q, nb)
		}

		for _, k := range []int{1, 4} {
			nbs, err := ix.KNearest(q, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range nbs {
				if deadSet[nb.ID] {
					t.Fatalf("trial %d: KNearest(%d) resolved tombstoned id %d", trial, k, nb.ID)
				}
			}
		}
		for _, id := range ix.Candidates(q) {
			if deadSet[id] {
				t.Fatalf("trial %d: Candidates resolved tombstoned id %d", trial, id)
			}
		}
	}
}

// Delete must leave the row of a tombstone NaN-poisoned: that is what marks
// the id dead, and a future regression that does read the row fails loudly
// (NaN distances) instead of returning a plausible stale neighbor.
func TestDeletePoisonsMirrorRow(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 303, 40, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	for j := 5 * 2; j < 6*2; j++ {
		if !math.IsNaN(ix.ptsFlat[j]) {
			t.Fatalf("ptsFlat[%d] = %v after Delete, want NaN", j, ix.ptsFlat[j])
		}
	}
	// Live rows stay intact.
	if ix.ptsFlat[4*2] != pts[4][0] {
		t.Fatalf("live row clobbered")
	}
}
