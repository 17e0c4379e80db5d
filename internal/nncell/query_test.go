package nncell

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// scanNearest is the exact O(n) sequential scan over the live points, the
// correctness oracle of the query paths. Ties go to the smaller id.
func (ix *Index) scanNearest(q vec.Point) Neighbor {
	metric := vec.Euclidean{}
	best := Neighbor{ID: -1}
	for id := range ix.cells.len() {
		p := ix.point(id)
		if p == nil {
			continue
		}
		d2 := metric.Dist2(q, p)
		if best.ID < 0 || d2 < best.Dist2 {
			best = Neighbor{ID: id, Dist2: d2}
		}
	}
	return best
}

// checkThreeWay asserts NearestNeighbor ≡ NearestNeighborPaged ≡ scan oracle
// (id and Dist2 bit-for-bit) on in-space queries, data points themselves and
// queries outside the data space (the fallback of both paths).
func checkThreeWay(t *testing.T, ix *Index, rng *rand.Rand, queries int, label string) {
	t.Helper()
	d := ix.Dim()
	ids := ix.IDs()
	for qi := 0; qi < queries; qi++ {
		q := randQuery(rng, d)
		switch qi % 8 {
		case 6:
			p, _ := ix.Point(ids[rng.Intn(len(ids))])
			q = p
		case 7:
			q[qi%d] += 1.5
		}
		want := ix.scanNearest(q)
		got, errG := ix.NearestNeighbor(q)
		paged, errP := ix.NearestNeighborPaged(q)
		if errG != nil || errP != nil {
			t.Fatalf("%s: errors %v / %v", label, errG, errP)
		}
		if got != want || paged != want {
			t.Fatalf("%s q=%v: directory %+v, paged %+v, scan oracle %+v", label, q, got, paged, want)
		}
	}
}

// The cell directory must return exactly what the paged cell X-tree and the
// scan return, on smooth and clustered data alike, for every
// constraint-selection algorithm, including queries outside the data space
// (both paths share the exact fallback) and after a Save/Load round trip
// (Load refills the directory from the validated cells).
func TestDirectoryMatchesPagedAndScan(t *testing.T) {
	for _, name := range []dataset.Name{dataset.NameUniform, dataset.NameClustered} {
		for _, alg := range Algorithms() {
			for _, d := range []int{2, 4, 8, 16} {
				n := 120
				if d == 16 {
					n = 60 // LP-heavy
				}
				label := fmt.Sprintf("%s/%s/d=%d", name, alg, d)
				pts := uniquePoints(t, name, int64(200+10*d+int(alg)), n, d)
				ix := mustBuild(t, pts, Options{Algorithm: alg})
				rng := rand.New(rand.NewSource(int64(300 + d)))
				checkThreeWay(t, ix, rng, 80, label)

				var buf bytes.Buffer
				if err := ix.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf, newTestPager())
				if err != nil {
					t.Fatal(err)
				}
				checkThreeWay(t, loaded, rng, 40, label+"/loaded")
				if err := loaded.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// The three-way equivalence must hold across every kind of mutation: per-op
// and batched inserts and deletes, and while lazily deferred repairs are
// still pending (stale cells keep their old superset bits) as well as after
// the repair pool has drained.
func TestDirectoryExactUnderChurn(t *testing.T) {
	const d = 4
	pts := uniquePoints(t, dataset.NameUniform, 71, 260, d)
	ix := mustBuild(t, pts[:120], Options{Algorithm: NNDirection, LazyRepair: true, RepairWorkers: -1})
	rng := rand.New(rand.NewSource(72))

	for _, p := range pts[120:150] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.InsertBatch(pts[150:220]); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().StaleCells == 0 {
		t.Fatal("no repairs pending: the lazy path was not exercised")
	}
	checkThreeWay(t, ix, rng, 120, "pending repairs")
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	for id := 0; id < 60; id += 5 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.DeleteBatch([]int{61, 62, 63, 130, 131, 200}); err != nil {
		t.Fatal(err)
	}
	checkThreeWay(t, ix, rng, 120, "after deletes")

	ix.RepairWait()
	if _, err := ix.InsertBatch(pts[220:]); err != nil {
		t.Fatal(err)
	}
	ix.RepairWait()
	if ix.Stats().StaleCells != 0 {
		t.Fatal("repairs still pending after RepairWait")
	}
	checkThreeWay(t, ix, rng, 120, "repaired")
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKNearestExactUnderChurn: k-NN answers stay equal to the sorted scan
// across per-op and batched inserts and deletes, with eager repair and with
// lazily deferred repairs pending and draining in the background, while
// concurrent readers run k-NN and out-of-bounds NN queries (the other user of
// the point directory) the whole time. A reader cannot compare with an oracle
// while the point set moves, so it checks what holds at any instant: the
// result is as long as asked, ascending by (Dist2, ID), and distinct.
func TestKNearestExactUnderChurn(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		const d = 4
		pts := uniquePoints(t, dataset.NameUniform, 81, 200, d)
		ix := mustBuild(t, pts[:120], Options{Algorithm: NNDirection, LazyRepair: lazy})
		label := fmt.Sprintf("lazy=%v", lazy)

		stop := make(chan struct{})
		errs := make(chan error, 4)
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var nbs []Neighbor
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := randQuery(rng, d)
					if rng.Intn(4) == 0 {
						q[rng.Intn(d)] += 1.5
						if _, err := ix.NearestNeighbor(q); err != nil {
							errs <- err
							return
						}
					}
					k := 2 + rng.Intn(30)
					var err error
					if nbs, err = ix.KNearestAppend(nbs[:0], q, k); err != nil {
						errs <- err
						return
					}
					sorted := sort.SliceIsSorted(nbs, func(a, b int) bool { return nbs[a].Less(nbs[b]) })
					for i := 1; sorted && i < len(nbs); i++ {
						sorted = nbs[i-1] != nbs[i]
					}
					if len(nbs) != k || !sorted {
						errs <- fmt.Errorf("%s: k=%d at %v returned %d neighbors, sorted and distinct: %v", label, k, q, len(nbs), sorted)
						return
					}
				}
			}(int64(82 + w))
		}

		rng := rand.New(rand.NewSource(85))
		step := func(what string, mutate func() error) {
			t.Helper()
			if err := mutate(); err != nil {
				t.Fatalf("%s: %s: %v", label, what, err)
			}
			checkKNearest(t, ix, rng, label+"/"+what)
		}
		step("inserts", func() error {
			for _, p := range pts[120:140] {
				if _, err := ix.Insert(p); err != nil {
					return err
				}
			}
			return nil
		})
		step("insert batch", func() error { _, err := ix.InsertBatch(pts[140:]); return err })
		step("deletes", func() error {
			for id := 0; id < 60; id += 5 {
				if err := ix.Delete(id); err != nil {
					return err
				}
			}
			return nil
		})
		step("delete batch", func() error { return ix.DeleteBatch([]int{61, 62, 63, 130, 131, 199}) })
		step("drained", func() error { ix.RepairWait(); return nil })

		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// Candidates stays the paper's exact overlap measure: the ascending ids of
// the cells the cell X-tree's point query returns, for queries in the space,
// on data points (cell corners) and outside the space.
func TestCandidatesMatchTreePointQuery(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, dataset.NameDiagonal, 73, 150, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	rng := rand.New(rand.NewSource(74))
	var qc xtree.QueryCtx
	for qi := 0; qi < 300; qi++ {
		q := randQuery(rng, d)
		switch qi % 6 {
		case 3:
			q = pts[rng.Intn(len(pts))]
		case 4:
			q[qi%d] = 1 + 1e-10 // inside the ε-padding of boundary cells
		case 5:
			q[qi%d] = -0.25
		}
		var want []int
		for _, id := range ix.Tree().PointQueryData(&qc, q, nil) {
			want = append(want, int(id))
		}
		sort.Ints(want)
		if got := ix.Candidates(q); !slices.Equal(got, want) {
			t.Fatalf("q=%v: Candidates %v, tree point query %v", q, got, want)
		}
	}
}

// Random exterior queries must resolve exactly: the clamp-and-verify fallback
// against the O(n) scan oracle. Exterior points are generated on all sides
// and corners of the data space, at varying distances.
func TestFallbackMatchesScanOracle(t *testing.T) {
	for _, alg := range []Algorithm{Correct, NNDirection} {
		for _, d := range []int{2, 6} {
			pts := uniquePoints(t, dataset.NameUniform, int64(400+10*d+int(alg)), 200, d)
			ix := mustBuild(t, pts, Options{Algorithm: alg})
			rng := rand.New(rand.NewSource(int64(500 + d)))
			for qi := 0; qi < 200; qi++ {
				q := randQuery(rng, d)
				out := false
				for j := range q {
					switch rng.Intn(3) {
					case 0:
						q[j] = -rng.Float64() * 2
						out = true
					case 1:
						q[j] = 1 + rng.Float64()*2
						out = true
					}
				}
				if !out {
					q[rng.Intn(d)] = 1.0001
				}
				want := ix.scanNearest(q)
				got, err := ix.NearestNeighbor(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/d=%d q=%v: fallback %+v, scan oracle %+v", alg, d, q, got, want)
				}
			}
		}
	}
}

// Candidates is a query like any other: it must count one query and the
// inspected candidates in the index stats.
func TestCandidatesCountsStats(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 61, 80, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	before := ix.Stats()
	rng := rand.New(rand.NewSource(62))
	total := 0
	for i := 0; i < 25; i++ {
		total += len(ix.Candidates(randQuery(rng, 4)))
	}
	after := ix.Stats()
	if after.Queries-before.Queries != 25 {
		t.Errorf("queries counted %d, want 25", after.Queries-before.Queries)
	}
	if got := after.Candidates - before.Candidates; got < uint64(total) {
		t.Errorf("candidates counted %d, want >= %d distinct results", got, total)
	}
}

// KNearest with k <= 0 fails with ErrBadK without touching the index or its
// stats; valid k counts exactly one query.
func TestKNearestStatsDiscipline(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 63, 80, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	before := ix.Stats()
	for _, k := range []int{0, -3} {
		nbs, err := ix.KNearest(randQuery(rand.New(rand.NewSource(64)), 4), k)
		if !errors.Is(err, ErrBadK) || nbs != nil {
			t.Fatalf("k=%d: got %v, %v; want nil, ErrBadK", k, nbs, err)
		}
	}
	if after := ix.Stats(); after != before {
		t.Errorf("k<=0 touched stats: %+v -> %+v", before, after)
	}
	if _, err := ix.KNearest(randQuery(rand.New(rand.NewSource(65)), 4), 3); err != nil {
		t.Fatal(err)
	}
	if after := ix.Stats(); after.Queries != before.Queries+1 {
		t.Errorf("k=3 counted %d queries, want %d", after.Queries, before.Queries+1)
	}
}

// The engine must stay exact across structural updates: deletes tombstone
// points and remove their cells, inserts recompute affected cells, and
// the SoA coordinate mirror must track both.
func TestEngineExactAfterUpdates(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 67, 120, 4)
	ix := mustBuild(t, pts[:100], Options{Algorithm: NNDirection})
	for id := 0; id < 100; id += 7 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pts[100:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(68))
	for qi := 0; qi < 100; qi++ {
		q := randQuery(rng, 4)
		want := ix.scanNearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("q=%v: engine %+v, scan oracle %+v", q, got, want)
		}
	}
}
