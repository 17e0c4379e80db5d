package nncell

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/vec"
)

// TestPointsWithinUsesIndex pins the Correct algorithm's pruning to the point
// directory: a small-radius range retrieval must visit (and count) only the
// points inside the sphere, not scan the full point set, and must return
// exactly the brute-force within-radius set.
func TestPointsWithinUsesIndex(t *testing.T) {
	const n, d = 500, 4
	pts := uniquePoints(t, dataset.NameUniform, 21, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})

	cc := newCellCtx(d)
	metric := vec.Euclidean{}
	for _, i := range []int{0, 17, n - 1} {
		radius := 0.15
		before := ix.Stats().PruneVisited
		ids, all := ix.pointsWithin(cc, i, radius)
		visited := ix.Stats().PruneVisited - before

		if visited >= uint64(n)/2 {
			t.Fatalf("point %d: pruning visited %d of %d points; expected an index-pruned subset", i, visited, n)
		}
		if all {
			t.Fatalf("point %d: radius %v cannot cover all %d points", i, radius, n)
		}
		// Cross-check against the linear scan the retrieval replaced.
		want := map[int]bool{}
		for id, q := range pts {
			if id != i && metric.Dist2(pts[i], q) <= radius*radius {
				want[id] = true
			}
		}
		if len(ids) != len(want) {
			t.Fatalf("point %d: got %d ids, brute force found %d", i, len(ids), len(want))
		}
		for _, id := range ids {
			if !want[id] {
				t.Fatalf("point %d: id %d not within radius", i, id)
			}
		}
	}

	// The all-points signal must still fire when the radius covers the space.
	ids, all := ix.pointsWithin(cc, 0, math.Sqrt(float64(d))+1)
	if !all || len(ids) != n-1 {
		t.Fatalf("full-space radius: got %d ids, all=%v; want %d, true", len(ids), all, n-1)
	}
}

// TestCorrectBuildPruneVisited checks end-to-end that a Correct build's
// pruning retrieval stays well below one linear scan per pruning round.
func TestCorrectBuildPruneVisited(t *testing.T) {
	// Low dimension and a larger N keep the pruning spheres small relative
	// to the point set, so index-backed retrieval is clearly sub-linear.
	const n, d = 600, 3
	pts := uniquePoints(t, dataset.NameUniform, 22, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	visited := ix.Stats().PruneVisited
	if visited == 0 {
		t.Fatal("Correct build recorded no pruning retrievals")
	}
	// A linear scan per cell would visit ≥ n·(n−1) points (≥ 1 round each).
	linear := uint64(n) * uint64(n-1)
	if visited >= linear/2 {
		t.Fatalf("Correct build visited %d points while pruning; linear scans would be %d — pruning is not index-backed", visited, linear)
	}
}

// buildOnCache builds over a pager with the given LRU budget. The alloc tests
// cover the pager's three paths: 0 records every access as a miss without
// touching the LRU, 2 is smaller than any root-to-leaf working set so the
// accesses miss and evict, and 64 (the serve default) holds these small trees
// whole so they hit and move to the front.
func buildOnCache(t *testing.T, pts []vec.Point, cachePages int, opts Options) *Index {
	t.Helper()
	ix, err := Build(pts, vec.UnitCube(pts[0].Dim()), pager.New(pager.Config{CachePages: cachePages}), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestNearestNeighborAllocs pins the warm query paths to zero allocations:
// the served query (cell directory), the paged query on the cell X-tree, the
// out-of-bounds fallback and the k-NN query (cell-directory seeds + box pass
// on the point directory, inside and outside the data space). The pooled
// QueryCtx owns every scratch buffer, and the pager's accounting — which only
// the paged query reaches — allocates nothing whether it hits, misses or
// evicts.
func TestNearestNeighborAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, d = 400, 6
	pts := uniquePoints(t, dataset.NameUniform, 23, n, d)
	qs := dataset.Uniform(rand.New(rand.NewSource(24)), 64, d)
	outside := make([]vec.Point, len(qs))
	for i, q := range qs {
		outside[i] = q.Clone()
		outside[i][i%d] += 1.5
	}
	for _, cachePages := range []int{0, 2, 64} {
		ix := buildOnCache(t, pts, cachePages, Options{Algorithm: NNDirection})
		nbrs := make([]Neighbor, 0, 10)
		knn := func(q vec.Point) (Neighbor, error) {
			var err error
			nbrs, err = ix.KNearestAppend(nbrs[:0], q, cap(nbrs))
			return nbrs[0], err
		}
		for _, tc := range []struct {
			name  string
			query func(vec.Point) (Neighbor, error)
			pool  []vec.Point
			paged bool
		}{
			{"NearestNeighbor", ix.NearestNeighbor, qs, false},
			{"NearestNeighborPaged", ix.NearestNeighborPaged, qs, true},
			{"fallback", ix.NearestNeighbor, outside, false},
			{"KNearestAppend", knn, qs, false},
			{"KNearestAppend outside", knn, outside, false},
		} {
			for _, q := range tc.pool { // warm
				if _, err := tc.query(q); err != nil {
					t.Fatal(err)
				}
			}
			before := ix.PagerStats()
			k := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := tc.query(tc.pool[k%len(tc.pool)]); err != nil {
					t.Fatal(err)
				}
				k++
			})
			if allocs != 0 {
				t.Fatalf("CachePages %d: %s allocates %v/op, want 0", cachePages, tc.name, allocs)
			}
			st := ix.PagerStats()
			hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
			switch {
			case !tc.paged && hits+misses != 0:
				t.Fatalf("CachePages %d: %s touched %d pages; the directory queries read none", cachePages, tc.name, hits+misses)
			case tc.paged && hits+misses == 0,
				tc.paged && cachePages == 2 && misses < hits,
				tc.paged && cachePages == 64 && hits < misses:
				t.Fatalf("CachePages %d: %s: %d hits, %d misses; the run did not take the pager path it is here for", cachePages, tc.name, hits, misses)
			}
		}
		if st := ix.Stats(); st.Fallbacks == 0 {
			t.Fatal("the out-of-bounds pool took no fallback")
		}
	}
}

// Warm NN, k-NN (k = 10, k = 17 past the seed bound's sixteen, and the
// within-a-limit form the sharded merge asks later shards for) and candidate
// queries allocate nothing at any dimension: the rows a directory pass
// gathers live in the query's context, sized once, so no dimension count
// outgrows a fixed buffer and spills to the heap.
func TestQueryAllocsAtEveryDim(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, d := range []int{4, 8, 16, 20, 24} {
		pts := uniquePoints(t, dataset.NameUniform, int64(50+d), 200, d)
		qs := dataset.Uniform(rand.New(rand.NewSource(int64(60+d))), 32, d)
		ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
		nbrs, ids := make([]Neighbor, 0, 17), make([]int, 0, len(pts))
		for _, tc := range []struct {
			name  string
			query func(q vec.Point) error
		}{
			{"NearestNeighbor", func(q vec.Point) (err error) { _, err = ix.NearestNeighbor(q); return err }},
			{"KNearestAppend", func(q vec.Point) (err error) { nbrs, err = ix.KNearestAppend(nbrs[:0], q, 10); return err }},
			{"KNearestAppend k=17", func(q vec.Point) (err error) { nbrs, err = ix.KNearestAppend(nbrs[:0], q, 17); return err }},
			{"KNearestWithinAppend", func(q vec.Point) (err error) {
				nbrs, err = ix.KNearestWithinAppend(nbrs[:0], q, 10, 0.05)
				return err
			}},
			{"CandidatesAppend", func(q vec.Point) error { ids = ix.CandidatesAppend(ids[:0], q); return nil }},
		} {
			for _, q := range qs { // warm
				if err := tc.query(q); err != nil {
					t.Fatal(err)
				}
			}
			k := 0
			allocs := testing.AllocsPerRun(100, func() {
				if err := tc.query(qs[k%len(qs)]); err != nil {
					t.Fatal(err)
				}
				k++
			})
			if allocs != 0 {
				t.Errorf("d=%d: warm %s allocates %v/op, want 0", d, tc.name, allocs)
			}
		}
	}
}

// TestCandidatesAllocs checks the reusable result buffer: a warm
// CandidatesAppend with a recycled slice allocates nothing.
func TestCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, d = 400, 6
	pts := uniquePoints(t, dataset.NameUniform, 25, n, d)
	qs := dataset.Uniform(rand.New(rand.NewSource(26)), 64, d)
	for _, cachePages := range []int{0, 2, 64} {
		ix := buildOnCache(t, pts, cachePages, Options{Algorithm: Sphere})
		ids := make([]int, 0, n)
		for _, q := range qs {
			ids = ix.CandidatesAppend(ids[:0], q)
		}
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			ids = ix.CandidatesAppend(ids[:0], qs[k%len(qs)])
			k++
		})
		if allocs != 0 {
			t.Fatalf("cache %d pages: CandidatesAppend allocates %v/op, want 0", cachePages, allocs)
		}
	}
}

// TestCandidatesDistinct: Candidates reports each id once, ascending, and
// exactly the cells whose stored rectangle contains the query — also on the
// data points, where neighbouring cells meet.
func TestCandidatesDistinct(t *testing.T) {
	const n, d = 120, 3
	pts := uniquePoints(t, dataset.NameDiagonal, 27, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	qs := append(dataset.Uniform(rand.New(rand.NewSource(28)), 200, d), pts...)
	for _, q := range qs {
		var want []int
		for id := range pts {
			if r, _ := ix.CellApprox(id); r.Contains(q) {
				want = append(want, id)
			}
		}
		if got := ix.Candidates(q); !slices.Equal(got, want) {
			t.Fatalf("query %v: candidates %v, cells containing it %v", q, got, want)
		}
	}
}
