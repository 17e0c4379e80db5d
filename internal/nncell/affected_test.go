package nncell

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// treeSearchIDs is the affected-cell query as the index answered it while it
// maintained the cell X-tree: a rectangle search on the cells, reduced to the
// ascending distinct ids of live cells.
func treeSearchIDs(ix *Index, rects ...vec.Rect) []int {
	seen := map[int]bool{}
	var ids []int
	for _, r := range rects {
		ix.Tree().Search(r, func(e xtree.Entry) bool {
			if id := int(e.Data); !seen[id] && ix.point(id) != nil {
				seen[id] = true
				ids = append(ids, id)
			}
			return true
		})
	}
	sort.Ints(ids)
	return ids
}

// checkAffected compares intersectingCells with the tree search on rectangles
// of every shape the write path and its edge geometry produce.
func checkAffected(t *testing.T, ix *Index, rng *rand.Rand, label string) {
	t.Helper()
	d, b := ix.dim, ix.bounds
	live := ix.IDs()
	coord := func(j int) float64 {
		w := b.Hi[j] - b.Lo[j]
		switch rng.Intn(5) {
		case 0: // a stripe edge k/64
			return b.Lo[j] + w*float64(rng.Intn(stripes+1))/stripes
		case 1: // a face of the data space, or just past it
			return []float64{b.Lo[j], b.Hi[j], b.Lo[j] - 1e-9, b.Hi[j] + 1e-9, b.Lo[j] - 3}[rng.Intn(5)]
		}
		return b.Lo[j] + w*rng.Float64()
	}
	var rects []vec.Rect
	for k := 0; k < 60; k++ {
		r := vec.EmptyRect(d)
		for j := 0; j < d; j++ {
			x, y := coord(j), coord(j)
			if k%4 == 3 {
				y = x // a point rectangle
			}
			r.Lo[j], r.Hi[j] = math.Min(x, y), math.Max(x, y)
		}
		rects = append(rects, r)
	}
	negZero := make(vec.Point, d)
	for j := range negZero {
		negZero[j] = math.Copysign(0, -1)
	}
	rects = append(rects, vec.EmptyRect(d), b, vec.Rect{Lo: negZero, Hi: make(vec.Point, d)})
	for k := 0; k < 20; k++ {
		// What a write asks: a stored cell's MBR, as is and padded past the
		// bounds it was clipped to; and a data point.
		id := live[rng.Intn(len(live))]
		outer := ix.cells.rect(id)
		padded := outer.Clone()
		for j := 0; j < d; j++ {
			padded.Lo[j] -= 1e-9
			padded.Hi[j] += 1e-9
		}
		rects = append(rects, outer, padded, vec.PointRect(ix.point(id)))
	}

	cc := newCellCtx(d)
	var got []int
	for _, r := range rects {
		got = ix.intersectingCells(cc, got[:0], r)
		if want := treeSearchIDs(ix, r); !slices.Equal(got, want) {
			t.Fatalf("%s r=%v: directory %v, tree search %v", label, r, got, want)
		}
	}
	// Several rectangles at once: the ascending distinct union.
	for k := 0; k+3 <= len(rects); k += 3 {
		got = ix.intersectingCells(cc, got[:0], rects[k:k+3]...)
		if want := treeSearchIDs(ix, rects[k:k+3]...); !slices.Equal(got, want) {
			t.Fatalf("%s rects=%v: directory %v, tree search %v", label, rects[k:k+3], got, want)
		}
	}
	// A cell staged for deletion keeps its rectangle until commit but must
	// not list itself.
	id := live[rng.Intn(len(live))]
	p := ix.point(id).Clone()
	outer := ix.cells.rect(id)
	ix.bury(id)
	got = ix.intersectingCells(cc, got[:0], outer)
	want := treeSearchIDs(ix, outer)
	copy(ix.ptsFlat[id*d:], p)
	ix.pdir.set(id, p)
	if !slices.Equal(got, want) || slices.Contains(got, id) {
		t.Fatalf("%s: with %d staged for deletion: directory %v, tree search %v", label, id, got, want)
	}
}

// The affected-cell query on the directory returns exactly what the rectangle
// search on the cell X-tree returns: in the unit cube and in a space with a
// zero-width dimension, after every kind of mutation and while lazy repairs
// are pending.
func TestAffectedSetMatchesTreeSearch(t *testing.T) {
	for _, flat := range []bool{false, true} {
		const d = 3
		label := fmt.Sprintf("flat=%v", flat)
		pts := uniquePoints(t, dataset.NameUniform, 81, 200, d)
		bounds := vec.UnitCube(d)
		if flat {
			bounds.Lo[d-1], bounds.Hi[d-1] = 0.5, 0.5
			for _, p := range pts {
				p[d-1] = 0.5
			}
		}
		ix, err := Build(pts[:100], bounds, newTestPager(), Options{
			Algorithm: NNDirection, LazyRepair: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		drainOnly(ix)
		rng := rand.New(rand.NewSource(82))
		checkAffected(t, ix, rng, label+"/built")

		for _, p := range pts[100:120] {
			if _, err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ix.InsertBatch(pts[120:170]); err != nil {
			t.Fatal(err)
		}
		if ix.Stats().StaleCells == 0 {
			t.Fatal("no repairs pending: the lazy path was not exercised")
		}
		checkAffected(t, ix, rng, label+"/pending repairs")

		for id := 0; id < 40; id += 3 {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.DeleteBatch([]int{41, 43, 101, 102, 150}); err != nil {
			t.Fatal(err)
		}
		checkAffected(t, ix, rng, label+"/after deletes")

		ix.RepairWait()
		if _, err := ix.InsertBatch(pts[170:]); err != nil {
			t.Fatal(err)
		}
		ix.RepairWait()
		checkAffected(t, ix, rng, label+"/repaired")
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// The warm affected-cell query allocates nothing: its bitsets live on the
// cellCtx and the ids go into the caller's slice.
func TestIntersectingCellsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	pts := uniquePoints(t, dataset.NameUniform, 83, 300, 4)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})
	cc := newCellCtx(ix.dim)
	cells := make([]vec.Rect, len(pts))
	for id := range cells {
		cells[id] = ix.cells.rect(id)
	}
	var ids []int
	k := 0
	query := func() {
		ids = ix.intersectingCells(cc, ids[:0], cells[k%len(pts)])
		k++
	}
	query()
	if len(ids) == 0 {
		t.Fatal("a stored cell intersects nothing, not even itself")
	}
	if avg := testing.AllocsPerRun(200, query); avg != 0 {
		t.Fatalf("intersectingCells allocates %v times per call on the warm path", avg)
	}
}

// Every kind of commit drops the derived cell X-tree, and the tree the next
// paged query derives is sound and answers exactly like the directory and the
// scan: insert, delete, both batches, a lazy-repair commit, and Load.
func TestPagedTreeFollowsEveryCommit(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, dataset.NameClustered, 84, 160, d)
	ix := drainOnly(mustBuild(t, pts[:80], Options{Algorithm: NNDirection, LazyRepair: true}))
	rng := rand.New(rand.NewSource(85))
	check := func(ix *Index, label string) {
		t.Helper()
		if ix.tree != nil {
			t.Fatalf("%s: the commit kept the derived tree", label)
		}
		checkThreeWay(t, ix, rng, 40, label)
		tree := ix.Tree()
		if tree.Len() != ix.Len() {
			t.Fatalf("%s: derived tree holds %d cells, the index stores %d", label, tree.Len(), ix.Len())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tree != ix.Tree() {
			t.Fatalf("%s: a second Tree() without a commit in between rebuilt the tree", label)
		}
	}
	check(ix, "built")
	if _, err := ix.Insert(pts[80]); err != nil {
		t.Fatal(err)
	}
	check(ix, "insert")
	if _, err := ix.InsertBatch(pts[81:120]); err != nil {
		t.Fatal(err)
	}
	check(ix, "insert batch")
	if err := ix.Delete(7); err != nil {
		t.Fatal(err)
	}
	check(ix, "delete")
	if err := ix.DeleteBatch([]int{8, 9, 85, 90}); err != nil {
		t.Fatal(err)
	}
	check(ix, "delete batch")
	if ix.Stats().StaleCells == 0 {
		t.Fatal("no repairs pending: the lazy path was not exercised")
	}
	ix.RepairWait()
	if ix.Stats().Repairs == 0 {
		t.Fatal("RepairWait committed nothing")
	}
	check(ix, "repair commit")

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, "load")
}

// Paged readers run beside a writer: each derives the tree it needs under the
// read lock, the writer's commits drop it, and nothing races (this test is on
// the Makefile's race list) or touches a released page.
func TestPagedReadersBesideWriter(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, dataset.NameUniform, 86, 220, d)
	ix := mustBuild(t, pts[:120], Options{Algorithm: NNDirection})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randQuery(rng, d)
				nb, err := ix.NearestNeighborPaged(q)
				if err != nil {
					errs <- err
					return
				}
				// The point set churns, so the check is internal consistency:
				// a returned id that is still live lies at the returned distance.
				if p, ok := ix.Point(nb.ID); ok {
					if d2 := (vec.Euclidean{}).Dist2(q, p); d2 != nb.Dist2 {
						errs <- errMismatch(d2, nb.Dist2)
						return
					}
				}
				if ix.Tree().Height() < 1 {
					errs <- fmt.Errorf("derived tree of height %d", ix.Tree().Height())
					return
				}
			}
		}(int64(w))
	}
	for k, p := range pts[120:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
		if k%3 == 0 {
			if err := ix.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkThreeWay(t, ix, rand.New(rand.NewSource(87)), 60, "after churn")
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A thousand alternations of insert and paged query build and drop a thousand
// trees; afterwards the pager holds exactly the pages of an index that took
// the same inserts and never built one.
func TestPagedTreePagesReturned(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, dataset.NameUniform, 88, 1040, d)
	opts := Options{Algorithm: NNDirection, LazyRepair: true}
	ix, twin := drainOnly(mustBuild(t, pts[:40], opts)), drainOnly(mustBuild(t, pts[:40], opts))
	rng := rand.New(rand.NewSource(89))
	for _, p := range pts[40:] {
		for _, x := range []*Index{ix, twin} {
			if _, err := x.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		before := ix.pg.LivePages()
		if _, err := ix.NearestNeighborPaged(randQuery(rng, d)); err != nil {
			t.Fatal(err)
		}
		if ix.pg.LivePages() <= before {
			t.Fatal("the paged query built no tree")
		}
	}
	if _, err := ix.Insert(vec.Point{0.123, 0.456}); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Insert(vec.Point{0.123, 0.456}); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.pg.LivePages(), twin.pg.LivePages(); got != want {
		t.Fatalf("%d live pages after 1000 build-and-drop rounds, %d without any: pages leaked", got, want)
	}
}

// The derived tree is a function of the stored cells alone: built by one
// worker or by four (GOMAXPROCS 1 and 4), it has the same height, the same pages, and charges
// every query the same accesses. (While Build loaded the tree itself, the
// workers' finishing order reached the STR sort.)
func TestPagedTreeIndependentOfWorkers(t *testing.T) {
	const d = 4
	pts := uniquePoints(t, dataset.NameUniform, 90, 600, d)
	type run struct {
		height, pages int
		accesses      []uint64
	}
	var runs []run
	for _, workers := range []int{1, 4} {
		withProcs(t, workers)
		pg := pager.New(pager.Config{PageSize: 4096, CachePages: 8})
		ix, err := Build(pts, vec.UnitCube(d), pg, Options{Algorithm: NNDirection})
		if err != nil {
			t.Fatal(err)
		}
		r := run{height: ix.Tree().Height(), pages: ix.pg.LivePages()}
		pg.ResetStats()
		rng := rand.New(rand.NewSource(91))
		for qi := 0; qi < 100; qi++ {
			if _, err := ix.NearestNeighborPaged(randQuery(rng, d)); err != nil {
				t.Fatal(err)
			}
			r.accesses = append(r.accesses, pg.Stats().Accesses)
		}
		runs = append(runs, r)
	}
	one, four := runs[0], runs[1]
	if one.height != four.height || one.pages != four.pages {
		t.Fatalf("1 worker: height %d, %d pages; 4 workers: height %d, %d pages", one.height, one.pages, four.height, four.pages)
	}
	for qi := range one.accesses {
		if one.accesses[qi] != four.accesses[qi] {
			t.Fatalf("query %d: %d page accesses so far with 1 worker, %d with 4", qi, one.accesses[qi], four.accesses[qi])
		}
	}
}

// TestNoTreeAfterCommit: a resident index holds coordinates, cells and two
// directories. Build is the only operation that may read a page, and does under
// Point and Sphere, whose selections are the leaf pages of a point X-tree it
// loads and releases. No write, repair or replay reads one under any
// algorithm, and the cell X-tree of a paged query is gone once a write has
// changed a cell, its pages returned.
func TestNoTreeAfterCommit(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, dataset.NameUniform, 98, 100, d)
	for _, alg := range Algorithms() {
		for _, lazy := range []bool{false, true} {
			label := fmt.Sprintf("%v lazy=%v", alg, lazy)
			ix := drainOnly(mustBuild(t, pts[:60], Options{Algorithm: alg, LazyRepair: lazy}))
			if read := ix.PagerStats().Accesses > 0; read != (alg == PointAlg || alg == Sphere) {
				t.Fatalf("%s: Build read pages: %v", label, read)
			}
			accesses := ix.PagerStats().Accesses
			none := func(x *Index, after string) {
				t.Helper()
				if x.tree != nil || x.pg.LivePages() != 0 {
					t.Fatalf("%s: after %s: cell tree %v, %d live pages", label, after, x.tree != nil, x.pg.LivePages())
				}
				if x == ix && ix.PagerStats().Accesses != accesses {
					t.Fatalf("%s: %s read pages", label, after)
				}
			}
			none(ix, "Build")

			// Each write follows a paged query, so a cell tree is there to drop.
			paged := func() {
				t.Helper()
				if _, err := ix.NearestNeighborPaged(pts[0]); err != nil || ix.tree == nil {
					t.Fatalf("%s: paged query: %v, tree built: %v", label, err, ix.tree != nil)
				}
				accesses = ix.PagerStats().Accesses
			}
			paged()
			if _, err := ix.Insert(pts[60]); err != nil {
				t.Fatal(err)
			}
			none(ix, "Insert")
			paged()
			if _, err := ix.InsertBatch(pts[61:70]); err != nil {
				t.Fatal(err)
			}
			none(ix, "InsertBatch")
			paged()
			if err := ix.Delete(3); err != nil {
				t.Fatal(err)
			}
			none(ix, "Delete")
			paged()
			if err := ix.DeleteBatch([]int{4, 5, 61}); err != nil {
				t.Fatal(err)
			}
			none(ix, "DeleteBatch")

			// A write that rolls back changes no cell, so the tree of the paged
			// query before it is still the tree of the stored cells and stays;
			// the lazy insert fails no solve of its own, commits its new cell
			// and drops it.
			paged()
			built := ix.tree
			ix.testHookApprox = func(id int) error {
				if id != ix.cells.len()-1 { // the new cell succeeds, the first affected one fails
					return fmt.Errorf("injected")
				}
				return nil
			}
			if _, err := ix.Insert(pts[70]); err == nil && !lazy {
				t.Fatalf("%s: the injected failure did not fail the insert", label)
			}
			if err := ix.Delete(6); err == nil {
				t.Fatalf("%s: the injected failure did not fail the delete", label)
			}
			ix.testHookApprox = nil
			if lazy {
				none(ix, "a lazy insert and a failed delete")
			} else if ix.tree != built || ix.PagerStats().Accesses != accesses {
				t.Fatalf("%s: a failed insert and a failed delete: tree replaced %v, pages read %v",
					label, ix.tree != built, ix.PagerStats().Accesses != accesses)
			}

			if lazy {
				if ix.Stats().StaleCells == 0 {
					t.Fatalf("%s: nothing stale to repair", label)
				}
				ix.RepairWait()
				none(ix, "RepairWait")
			}

			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf, newTestPager())
			if err != nil {
				t.Fatal(err)
			}
			// Replay is the write path again, on an index Build never touched.
			next := ix.cells.len()
			for _, rec := range []wal.Record{
				{Kind: wal.KindInsert, ID: int64(next), Point: pts[71]},
				{Kind: wal.KindInsertBatch, IDs: []int64{int64(next + 1), int64(next + 2)}, Coords: append(pts[72].Clone(), pts[73]...)},
				{Kind: wal.KindDelete, ID: 7},
				{Kind: wal.KindDeleteBatch, IDs: []int64{8, int64(next)}},
			} {
				if applied, err := loaded.ApplyLogRecord(rec); err != nil || !applied {
					t.Fatalf("%s: replaying kind %d: applied %v, %v", label, rec.Kind, applied, err)
				}
			}
			none(loaded, "Load and replay")
			if loaded.PagerStats().Accesses != 0 {
				t.Fatalf("%s: Load and replay read %d pages", label, loaded.PagerStats().Accesses)
			}
			checkThreeWay(t, loaded, rand.New(rand.NewSource(99)), 30, label+" replayed")
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkThreeWay(t, ix, rand.New(rand.NewSource(99)), 30, label)
		}
	}
}
