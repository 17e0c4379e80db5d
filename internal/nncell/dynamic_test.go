package nncell

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/voronoi"
)

// After dynamic insertions the index must be indistinguishable from a fresh
// bulk build: every query exact, and (for Correct) every stored MBR equal to
// the exact Voronoi MBR.
func TestInsertMaintainsExactness(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 61, 120, 2)
	ix := mustBuild(t, pts[:60], Options{Algorithm: Correct})
	for _, p := range pts[60:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 120 {
		t.Fatalf("Len = %d", ix.Len())
	}
	bounds := vec.UnitCube(2)
	for i := range pts {
		exact := voronoi.NNCell(pts, i, bounds).MBR()
		cell, ok := ix.CellApprox(i)
		if !ok {
			t.Fatalf("cell %d missing after inserts", i)
		}
		for j := 0; j < 2; j++ {
			if math.Abs(cell.Lo[j]-exact.Lo[j]) > 1e-6 || math.Abs(cell.Hi[j]-exact.Hi[j]) > 1e-6 {
				t.Fatalf("cell %d dim %d: got [%v,%v], exact [%v,%v]",
					i, j, cell.Lo[j], cell.Hi[j], exact.Lo[j], exact.Hi[j])
			}
		}
	}
	if s := ix.Stats(); s.Updates == 0 {
		t.Error("insertions triggered no affected-cell updates")
	}
}

func TestInsertQueriesStayExact(t *testing.T) {
	for _, opts := range []Options{
		{Algorithm: Sphere},
		{Algorithm: NNDirection},
	} {
		pts := uniquePoints(t, dataset.NameClustered, 62, 150, 4)
		ix := mustBuild(t, pts[:75], opts)
		for _, p := range pts[75:] {
			if _, err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
		rng := rand.New(rand.NewSource(63))
		for trial := 0; trial < 40; trial++ {
			q := randQuery(rng, 4)
			_, wantD2 := oracle.Nearest(q)
			got, err := ix.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist2-wantD2) > 1e-12 {
				t.Fatalf("alg %v trial %d: got %v want %v", opts.Algorithm, trial, got.Dist2, wantD2)
			}
		}
		if s := ix.Stats(); s.Fallbacks != 0 {
			t.Errorf("alg %v: %d fallbacks", opts.Algorithm, s.Fallbacks)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 64, 20, 3)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	if _, err := ix.Insert(vec.Point{0.5, 0.5}); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if _, err := ix.Insert(vec.Point{1.5, 0.5, 0.5}); err == nil {
		t.Error("out-of-space point accepted")
	}
	if _, err := ix.Insert(pts[3]); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestDeleteMaintainsExactness(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 65, 100, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	// Delete the first 40 points.
	for i := 0; i < 40; i++ {
		if err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 60 {
		t.Fatalf("Len = %d", ix.Len())
	}
	rest := pts[40:]
	bounds := vec.UnitCube(2)
	for i := range rest {
		exact := voronoi.NNCell(rest, i, bounds).MBR()
		cell, ok := ix.CellApprox(40 + i)
		if !ok {
			t.Fatalf("cell %d missing after deletes", 40+i)
		}
		for j := 0; j < 2; j++ {
			if math.Abs(cell.Lo[j]-exact.Lo[j]) > 1e-6 || math.Abs(cell.Hi[j]-exact.Hi[j]) > 1e-6 {
				t.Fatalf("cell %d dim %d: got [%v,%v], exact [%v,%v]",
					40+i, j, cell.Lo[j], cell.Hi[j], exact.Lo[j], exact.Hi[j])
			}
		}
	}
	// Queries against the oracle over survivors.
	oracle := scan.New(rest, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 60; trial++ {
		q := randQuery(rng, 2)
		_, wantD2 := oracle.Nearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, wantD2)
		}
	}
}

func TestDeleteValidation(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 67, 10, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	if err := ix.Delete(42); err == nil {
		t.Error("unknown id accepted")
	}
	if err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(3); err == nil {
		t.Error("double delete accepted")
	}
	if _, ok := ix.Point(3); ok {
		t.Error("deleted point still visible")
	}
}

func TestDeleteAllThenQueryAndReinsert(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 68, 12, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	for i := range pts {
		if err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 0 || ix.Stats().Fragments != 0 {
		t.Fatalf("Len=%d Fragments=%d after deleting everything", ix.Len(), ix.Stats().Fragments)
	}
	if _, err := ix.NearestNeighbor(vec.Point{0.5, 0.5}); err != ErrEmpty {
		t.Errorf("query on empty index: err = %v", err)
	}
	// Reinsert into the empty index: the first point owns the whole space.
	id, err := ix.Insert(vec.Point{0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := ix.CellApprox(id)
	if !ok || !cell.ContainsRect(vec.UnitCube(2)) {
		t.Errorf("first reinserted cell = %v, want unit cube", cell)
	}
	got, err := ix.NearestNeighbor(vec.Point{0.9, 0.9})
	if err != nil || got.ID != id {
		t.Errorf("NN = %v, %v", got, err)
	}
}

// Interleaved inserts and deletes against a continuously verified oracle.
func TestMixedDynamicWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	pts := uniquePoints(t, dataset.NameUniform, 70, 400, 3)
	ix := mustBuild(t, pts[:50], Options{Algorithm: Sphere})
	type rec struct {
		id int
		p  vec.Point
	}
	live := make([]rec, 0, 400)
	for i := 0; i < 50; i++ {
		live = append(live, rec{i, pts[i]})
	}
	nextPt := 50
	for op := 0; op < 120; op++ {
		if (rng.Float64() < 0.6 && nextPt < len(pts)) || len(live) <= 2 {
			id, err := ix.Insert(pts[nextPt])
			if err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			live = append(live, rec{id, pts[nextPt]})
			nextPt++
		} else {
			k := rng.Intn(len(live))
			if err := ix.Delete(live[k].id); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		if op%20 == 19 {
			livePts := make([]vec.Point, len(live))
			for i, r := range live {
				livePts[i] = r.p
			}
			oracle := scan.New(livePts, vec.Euclidean{}, newTestPager())
			for trial := 0; trial < 10; trial++ {
				q := randQuery(rng, 3)
				_, wantD2 := oracle.Nearest(q)
				got, err := ix.NearestNeighbor(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Dist2-wantD2) > 1e-12 {
					t.Fatalf("op %d trial %d: got %v want %v", op, trial, got.Dist2, wantD2)
				}
			}
		}
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Failure injection via the approximateCell test hook: a failing solve at any
// stage of Insert must leave the index byte-for-byte as it was — the staged
// point rolled back, no stored cell touched, every invariant intact.
func TestInsertRollbackOnFailure(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name string
		// procs is GOMAXPROCS for the recompute (0: as the test runs).
		procs int
		// failAffected selects where the solve fails: the new point's own
		// cell, or one of the affected cells recomputed afterwards.
		failAffected bool
	}{
		{"new cell", 0, false},
		{"affected serial", 1, true},
		{"affected parallel", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				withProcs(t, tc.procs)
			}
			pts := uniquePoints(t, dataset.NameUniform, 71, 81, 2)
			ix := mustBuild(t, pts[:80], Options{Algorithm: Correct})
			wantLen, wantDir := ix.Len(), pointDirSnapshot(ix)
			newID := len(pts) - 1 // next id: 80 points, no tombstones

			ix.testHookApprox = func(id int) error {
				if (id == 80) != tc.failAffected {
					return errBoom
				}
				return nil
			}
			_, err := ix.Insert(pts[80])
			ix.testHookApprox = nil
			if !errors.Is(err, errBoom) {
				t.Fatalf("Insert err = %v, want injected failure", err)
			}
			if ix.Len() != wantLen {
				t.Fatalf("after failed insert: Len=%d, want %d", ix.Len(), wantLen)
			}
			if _, ok := ix.Point(newID); ok {
				t.Error("rolled-back point still visible")
			}
			assertPointDirIs(t, ix, wantDir)
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Queries remain exact over the pre-insert point set...
			oracle := scan.New(pts[:80], vec.Euclidean{}, newTestPager())
			rng := rand.New(rand.NewSource(72))
			for trial := 0; trial < 25; trial++ {
				q := randQuery(rng, 2)
				_, wantD2 := oracle.Nearest(q)
				got, err := ix.NearestNeighbor(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Dist2-wantD2) > 1e-12 {
					t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, wantD2)
				}
			}
			// ...and the same insert succeeds once the failure clears.
			id, err := ix.Insert(pts[80])
			if err != nil {
				t.Fatal(err)
			}
			if id != newID {
				t.Errorf("retried insert got id %d, want %d", id, newID)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A failing recompute during Delete must restore the point: no tombstone, no
// stored cell changes, queries still see it.
func TestDeleteRollbackOnFailure(t *testing.T) {
	errBoom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		withProcs(t, workers)
		pts := uniquePoints(t, dataset.NameUniform, 73, 80, 2)
		ix := mustBuild(t, pts, Options{Algorithm: Correct})
		wantLen, wantDir := ix.Len(), pointDirSnapshot(ix)

		ix.testHookApprox = func(id int) error { return errBoom }
		err := ix.Delete(17)
		ix.testHookApprox = nil
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: Delete err = %v, want injected failure", workers, err)
		}
		if ix.Len() != wantLen {
			t.Fatalf("workers=%d: after failed delete: Len=%d, want %d", workers, ix.Len(), wantLen)
		}
		if p, ok := ix.Point(17); !ok || !p.Equal(pts[17]) {
			t.Fatalf("workers=%d: point 17 = %v, %v after rolled-back delete", workers, p, ok)
		}
		assertPointDirIs(t, ix, wantDir)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got, err := ix.NearestNeighbor(pts[17])
		if err != nil || got.ID != 17 || got.Dist2 != 0 {
			t.Fatalf("workers=%d: NN at restored point = %v, %v", workers, got, err)
		}
		// A failed batch restores every point it had hidden.
		ix.testHookApprox = func(id int) error { return errBoom }
		err = ix.DeleteBatch([]int{3, 17, 40})
		ix.testHookApprox = nil
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: DeleteBatch err = %v, want injected failure", workers, err)
		}
		assertPointDirIs(t, ix, wantDir)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The delete goes through once the failure clears.
		if err := ix.Delete(17); err != nil {
			t.Fatal(err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
