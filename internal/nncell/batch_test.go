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

// assertExactQueries cross-checks NN, kNN and Candidates against the scan
// oracle over the given live point set (idToPoint maps index ids to oracle
// positions: idToPoint[id] == position of that point in live).
func assertExactQueries(t *testing.T, ix *Index, live []vec.Point, idToLive map[int]int, seed int64, trials int) {
	t.Helper()
	d := live[0].Dim()
	oracle := scan.New(live, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		q := randQuery(rng, d)

		wantIdx, wantD2 := oracle.Nearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: NN dist2 %v, oracle %v", trial, got.Dist2, wantD2)
		}

		k := 1 + rng.Intn(5)
		wantK := oracle.KNearest(q, k)
		gotK, err := ix.KNearest(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != len(wantK) {
			t.Fatalf("trial %d: kNN returned %d, oracle %d", trial, len(gotK), len(wantK))
		}
		for j := range wantK {
			if math.Abs(gotK[j].Dist2-wantK[j].Dist2) > 1e-12 {
				t.Fatalf("trial %d: kNN[%d] dist2 %v, oracle %v", trial, j, gotK[j].Dist2, wantK[j].Dist2)
			}
		}

		// The candidate set must contain the true NN (no false dismissals).
		found := false
		for _, id := range ix.CandidatesAppend(nil, q) {
			if pos, ok := idToLive[id]; ok && pos == wantIdx {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: candidate set misses the true NN (oracle idx %d)", trial, wantIdx)
		}
	}
}

// identity id→live mapping for an index whose ids are 0..n-1 with no
// tombstones.
func identMap(n int) map[int]int {
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		m[i] = i
	}
	return m
}

// Eagerly batched inserts must leave the index indistinguishable from a
// fresh bulk build: for Correct, every stored MBR equals the exact Voronoi
// MBR of the final point set.
func TestInsertBatchMatchesExactCells(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 501, 100, 2)
	ix := mustBuild(t, pts[:60], Options{Algorithm: Correct})
	ids, err := ix.InsertBatch(pts[60:])
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		if id != 60+k {
			t.Fatalf("batch ids = %v, want contiguous from 60", ids)
		}
	}
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bounds := vec.UnitCube(2)
	for i := range pts {
		exact := voronoi.NNCell(pts, i, bounds).MBR()
		cell, ok := ix.CellApprox(i)
		if !ok {
			t.Fatalf("cell %d missing after batch insert", i)
		}
		for j := 0; j < 2; j++ {
			if math.Abs(cell.Lo[j]-exact.Lo[j]) > 1e-6 || math.Abs(cell.Hi[j]-exact.Hi[j]) > 1e-6 {
				t.Fatalf("cell %d dim %d: got [%v,%v], exact [%v,%v]",
					i, j, cell.Lo[j], cell.Hi[j], exact.Lo[j], exact.Hi[j])
			}
		}
	}
	assertExactQueries(t, ix, pts, identMap(len(pts)), 502, 30)
}

func TestInsertBatchValidation(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 503, 30, 3)
	ix := mustBuild(t, pts[:20], Options{Algorithm: Sphere})
	wantLen := ix.Len()
	cases := map[string][]vec.Point{
		"dim mismatch":     {pts[20], vec.Point{0.5, 0.5}},
		"out of bounds":    {pts[20], vec.Point{0.5, 0.5, 1.5}},
		"dup of existing":  {pts[20], pts[3]},
		"dup within batch": {pts[20], pts[21], pts[20]},
	}
	for name, batch := range cases {
		if _, err := ix.InsertBatch(batch); err == nil {
			t.Errorf("%s: InsertBatch accepted a bad batch", name)
		}
		if ix.Len() != wantLen {
			t.Fatalf("%s: batch failure leaked state: Len=%d, want %d", name, ix.Len(), wantLen)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if ids, err := ix.InsertBatch(nil); err != nil || ids != nil {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
}

// A failing solve anywhere in the batch — a new cell or an affected
// recompute — must roll the whole batch back.
func TestInsertBatchRollbackOnFailure(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name         string
		failAffected bool
	}{
		{"new cell", false},
		{"affected cell", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := uniquePoints(t, dataset.NameUniform, 505, 70, 2)
			ix := mustBuild(t, pts[:50], Options{Algorithm: Correct})
			wantLen, wantDir := ix.Len(), pointDirSnapshot(ix)

			ix.testHookApprox = func(id int) error {
				if (id >= 50) != tc.failAffected {
					return errBoom
				}
				return nil
			}
			_, err := ix.InsertBatch(pts[50:])
			ix.testHookApprox = nil
			if !errors.Is(err, errBoom) {
				t.Fatalf("InsertBatch err = %v, want injected failure", err)
			}
			if ix.Len() != wantLen {
				t.Fatalf("after failed batch: Len=%d, want %d", ix.Len(), wantLen)
			}
			assertPointDirIs(t, ix, wantDir)
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			assertExactQueries(t, ix, pts[:50], identMap(50), 506, 15)
			// The same batch succeeds once the failure clears.
			if _, err := ix.InsertBatch(pts[50:]); err != nil {
				t.Fatal(err)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			assertExactQueries(t, ix, pts, identMap(len(pts)), 507, 15)
		})
	}
}

func TestDeleteBatch(t *testing.T) {
	pts := uniquePoints(t, dataset.NameClustered, 508, 90, 3)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	dead := []int{3, 41, 7, 88, 20, 55}
	if err := ix.DeleteBatch(dead); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(pts)-len(dead) {
		t.Fatalf("Len = %d", ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	inDead := make(map[int]bool)
	for _, id := range dead {
		inDead[id] = true
	}
	var live []vec.Point
	idToLive := make(map[int]int)
	for i, p := range pts {
		if !inDead[i] {
			idToLive[i] = len(live)
			live = append(live, p)
		}
	}
	assertExactQueries(t, ix, live, idToLive, 509, 30)

	// Validation: unknown id, double delete, duplicate inside the batch all
	// fail without leaking state.
	wantLen := ix.Len()
	for name, batch := range map[string][]int{
		"unknown":   {1, 9999},
		"tombstone": {1, 3},
		"dup":       {1, 2, 1},
	} {
		if err := ix.DeleteBatch(batch); err == nil {
			t.Errorf("%s: DeleteBatch accepted a bad batch", name)
		}
		if ix.Len() != wantLen {
			t.Fatalf("%s: failed batch leaked state", name)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// A write on a lazy index is lazy however large the stale backlog grows:
// inserts recompute no cell, and the stale gauges count what they marked.
func TestLazyInsertsStayLazy(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 913, 120, 2)
	ix := drainOnly(mustBuild(t, pts[:40], Options{
		Algorithm: Correct, LazyRepair: true,
	}))
	updatesBefore := ix.Stats().Updates
	for _, p := range pts[40:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.Stats()
	if st.Updates != updatesBefore {
		t.Fatalf("lazy inserts ran %d eager recomputes", st.Updates-updatesBefore)
	}
	if st.StaleCells == 0 || st.StaleCellsHighWater < st.StaleCells {
		t.Fatalf("stale accounting off: now=%d highwater=%d", st.StaleCells, st.StaleCellsHighWater)
	}
}
