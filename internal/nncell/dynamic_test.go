package nncell

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vec"
)

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
