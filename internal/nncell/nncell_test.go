package nncell

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/voronoi"
)

func newTestPager() *pager.Pager {
	return pager.New(pager.Config{PageSize: 4096, CachePages: 0})
}

func mustBuild(t testing.TB, pts []vec.Point, opts Options) *Index {
	t.Helper()
	ix, err := Build(pts, vec.UnitCube(pts[0].Dim()), newTestPager(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// drainOnly keeps ix from starting repair workers: its stale cells stay stale
// until RepairWait drains them, which holds the stale window of a lazy index
// open for as long as a test needs it.
func drainOnly(ix *Index) *Index {
	ix.rq.drainOnly = true
	return ix
}

// withProcs sets GOMAXPROCS, the worker count of a build or recompute, to n
// until the test ends.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func uniquePoints(t testing.TB, name dataset.Name, seed int64, n, d int) []vec.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts, err := dataset.Generate(name, rng, n, d)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.Deduplicate(pts)
}

func randQuery(rng *rand.Rand, d int) vec.Point {
	q := make(vec.Point, d)
	for j := range q {
		q[j] = rng.Float64()
	}
	return q
}

// In 2-D the Correct algorithm must reproduce the exact Voronoi-cell MBRs
// computed by half-plane clipping.
func TestCorrectMatchesExactVoronoi2D(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 41, 60, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	bounds := vec.UnitCube(2)
	for i := range pts {
		exact := voronoi.NNCell(pts, i, bounds).MBR()
		got, ok := ix.CellApprox(i)
		if !ok {
			t.Fatalf("cell %d: no stored cell", i)
		}
		for j := 0; j < 2; j++ {
			if math.Abs(got.Lo[j]-exact.Lo[j]) > 1e-6 || math.Abs(got.Hi[j]-exact.Hi[j]) > 1e-6 {
				t.Fatalf("cell %d dim %d: got [%v,%v], exact [%v,%v]",
					i, j, got.Lo[j], got.Hi[j], exact.Lo[j], exact.Hi[j])
			}
		}
	}
}

// Lemma 1: the optimized algorithms may only enlarge the correct MBR.
func TestLemma1OptimizedSupersets(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 42, 150, 4)
	correct := mustBuild(t, pts, Options{Algorithm: Correct})
	for _, alg := range []Algorithm{PointAlg, Sphere, NNDirection} {
		opt := mustBuild(t, pts, Options{Algorithm: alg})
		for i := range pts {
			cf, _ := correct.CellApprox(i)
			of, _ := opt.CellApprox(i)
			// Allow epsilon slack (both sides are padded by 1e-9).
			for j := 0; j < 4; j++ {
				if of.Lo[j] > cf.Lo[j]+1e-7 || of.Hi[j] < cf.Hi[j]-1e-7 {
					t.Fatalf("%v cell %d: optimized %v does not contain correct %v", alg, i, of, cf)
				}
			}
		}
	}
}

// Data points themselves are queries too: each point's NN is itself.
func TestSelfQueries(t *testing.T) {
	pts := uniquePoints(t, dataset.NameClustered, 44, 150, 5)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	for i, p := range pts {
		got, err := ix.NearestNeighbor(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != i || got.Dist2 != 0 {
			t.Fatalf("self-query %d: got id %d dist %v", i, got.ID, got.Dist2)
		}
	}
}

// Out-of-data-space queries fall back to the exact scan.
func TestOutOfBoundsQueryExact(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 45, 80, 3)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	q := vec.Point{1.5, -0.3, 0.5}
	wantIdx, wantD2 := oracle.Nearest(q)
	got, err := ix.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != wantIdx || math.Abs(got.Dist2-wantD2) > 1e-12 {
		t.Fatalf("got %v, want id %d dist %v", got, wantIdx, wantD2)
	}
	if s := ix.Stats(); s.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", s.Fallbacks)
	}
}

// The grid distribution is the paper's best case: approximations coincide
// with the cells, so every query sees exactly one candidate and the total
// approximation volume is exactly the data-space volume.
func TestGridIsPerfect(t *testing.T) {
	pts := uniquePoints(t, dataset.NameGrid, 46, 81, 2) // 9x9 lattice
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	if vs := ix.ApproxVolumeSum(); math.Abs(vs-1) > 1e-6 {
		t.Errorf("ApproxVolumeSum = %v, want 1", vs)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		q := randQuery(rng, 2)
		if c := ix.Candidates(q); len(c) > 2 {
			// >2 only possible on cell boundaries, which have measure zero.
			t.Fatalf("grid query %v hit %d candidates", q, len(c))
		}
	}
}

// Approximations are supersets of the cells, and the cells tile the data
// space, so total approximation volume is at least Vol(DS).
func TestApproxVolumeLowerBound(t *testing.T) {
	for _, shape := range []dataset.Name{dataset.NameUniform, dataset.NameDiagonal} {
		pts := uniquePoints(t, shape, 48, 60, 3)
		ix := mustBuild(t, pts, Options{Algorithm: Correct})
		if vs := ix.ApproxVolumeSum(); vs < 1-1e-9 {
			t.Errorf("%s: ApproxVolumeSum = %v < 1", shape, vs)
		}
	}
}

// Decompose(8) cuts every cell into at most 8 fragments, each inside the
// stored rectangle up to rounding, and does not increase the total approximation volume;
// Decompose(1) re-selects and re-solves exactly the stored cells; a tombstone
// has no fragments; and the index is left as it was.
func TestDecompositionShrinksVolume(t *testing.T) {
	pts := uniquePoints(t, dataset.NameDiagonal, 49, 80, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	stats := ix.Stats()
	one, err := ix.Decompose(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ix.Decompose(8)
	if err != nil {
		t.Fatal(err)
	}
	if one[5] != nil || dec[5] != nil {
		t.Fatalf("tombstone 5 decomposed into %v / %v", one[5], dec[5])
	}
	vDec := 0.0
	for i := range pts {
		cell, ok := ix.CellApprox(i)
		if !ok {
			continue
		}
		if len(one[i]) != 1 || !one[i][0].Equal(cell) {
			t.Fatalf("cell %d: Decompose(1) = %v, stored %v", i, one[i], cell)
		}
		if n := len(dec[i]); n == 0 || n > 8 {
			t.Fatalf("cell %d has %d fragments, want 1 to 8", i, n)
		}
		for _, f := range dec[i] {
			for j := range f.Lo { // up to the rounding of the slab LPs
				if f.Lo[j] < cell.Lo[j]-1e-12 || f.Hi[j] > cell.Hi[j]+1e-12 {
					t.Fatalf("cell %d: fragment %v escapes the stored MBR %v", i, f, cell)
				}
			}
			vDec += f.Volume()
		}
	}
	if vPlain := ix.ApproxVolumeSum(); vDec > vPlain+1e-9 {
		t.Errorf("decomposed volume %v > plain %v", vDec, vPlain)
	} else if vDec >= vPlain*0.99 {
		t.Logf("note: decomposition saved little volume (%v -> %v)", vPlain, vDec)
	}
	if after := ix.Stats(); after.LPSolves != stats.LPSolves || after.Fragments != uint64(ix.Len()) {
		t.Errorf("Decompose changed the index's stats: %+v, then %+v", stats, after)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Sphere selects from the pages of a point tree, which Decompose loads
	// again as Build did.
	sphere := mustBuild(t, pts, Options{Algorithm: Sphere})
	if one, err = sphere.Decompose(1); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if cell, _ := sphere.CellApprox(i); len(one[i]) != 1 || !one[i][0].Equal(cell) {
			t.Fatalf("Sphere cell %d: Decompose(1) = %v, stored %v", i, one[i], cell)
		}
	}
}

// scanKNearest is the k-NN oracle: every live point with its squared distance
// from q, sorted by (Dist2, ID), cut to k.
func (ix *Index) scanKNearest(q vec.Point, k int) []Neighbor {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var all []Neighbor
	for id := range ix.cells.len() {
		if p := ix.point(id); p != nil {
			all = append(all, Neighbor{ID: id, Dist2: vec.Euclidean{}.Dist2(q, p)})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
	return all[:min(k, len(all))]
}

// Ties at the cut: on lattices of binary fractions (d = 4 and, on the fused
// kernel's lanes, d = 8) and queries on a finer lattice, k-NN for k ∈ {1, 2,
// 10, 16, 17, 64} equals the sorted scan — ids, Dist2 bits and order — on
// every kernel set, including queries whose k-th and (k+1)-th distances are
// equal, so that the smaller id must win the last place. Every k must meet
// such a query.
func TestKNearestTiesAtK(t *testing.T) {
	ks := []int{1, 2, 10, 16, 17, 64}
	for _, d := range []int{4, 8} {
		rng := rand.New(rand.NewSource(int64(70 + d)))
		ix := mustBuild(t, dataset.Grid(rng, 256, d, 0), Options{Algorithm: NNDirection})
		forKernelSets(t, func(t *testing.T) {
			tied := map[int]int{}
			for range 300 {
				q := make(vec.Point, d)
				for j := range q {
					q[j] = float64(rng.Intn(9)) / 8
				}
				all := ix.scanKNearest(q, ix.Len())
				for _, k := range ks {
					got, err := ix.KNearest(q, k)
					if err != nil || !slices.Equal(got, all[:k]) {
						t.Fatalf("d=%d q=%v k=%d: %v, %v\nwant %v", d, q, k, got, err, all[:k])
					}
					if all[k-1].Dist2 == all[k].Dist2 {
						tied[k]++
					}
				}
			}
			for _, k := range ks {
				if tied[k] == 0 {
					t.Errorf("d=%d: no query tied at k=%d", d, k)
				}
			}
		})
	}
}

func TestBuildValidation(t *testing.T) {
	pg := newTestPager()
	if _, err := Build(nil, vec.UnitCube(2), pg, Options{}); err != ErrEmpty {
		t.Errorf("empty build: err = %v", err)
	}
	dup := []vec.Point{{0.1, 0.1}, {0.1, 0.1}}
	if _, err := Build(dup, vec.UnitCube(2), pg, Options{}); err == nil {
		t.Error("duplicate points accepted")
	}
	out := []vec.Point{{0.1, 0.1}, {1.5, 0.5}}
	if _, err := Build(out, vec.UnitCube(2), pg, Options{}); err == nil {
		t.Error("out-of-space point accepted")
	}
	mixed := []vec.Point{{0.1, 0.1}, {0.2, 0.2, 0.2}}
	if _, err := Build(mixed, vec.UnitCube(2), pg, Options{}); err == nil {
		t.Error("mixed dimensionality accepted")
	}
	if _, err := Build([]vec.Point{{0.5, 0.5}}, vec.UnitCube(3), pg, Options{}); err == nil {
		t.Error("bounds dimension mismatch accepted")
	}
}

// A single point owns the whole data space.
func TestSinglePoint(t *testing.T) {
	ix := mustBuild(t, []vec.Point{{0.3, 0.7}}, Options{Algorithm: Correct})
	cell, ok := ix.CellApprox(0)
	if !ok || !cell.ContainsRect(vec.UnitCube(2)) {
		t.Errorf("single-point cell = %v, want the unit cube", cell)
	}
	got, err := ix.NearestNeighbor(vec.Point{0.9, 0.1})
	if err != nil || got.ID != 0 {
		t.Errorf("NN = %v, %v", got, err)
	}
}

// The candidate count behaves like the paper's overlap curves: it grows with
// dimensionality for uniform data (Fig. 4b).
func TestOverlapGrowsWithDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	avg := func(d int) float64 {
		pts := uniquePoints(t, dataset.NameUniform, int64(60+d), 150, d)
		ix := mustBuild(t, pts, Options{Algorithm: Correct})
		total := 0
		const nq = 150
		for trial := 0; trial < nq; trial++ {
			total += len(ix.Candidates(randQuery(rng, d)))
		}
		return float64(total) / nq
	}
	lo, hi := avg(2), avg(8)
	if hi <= lo {
		t.Errorf("overlap did not grow with dimension: d=2 %v, d=8 %v", lo, hi)
	}
}

func TestStatsAccounting(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 53, 50, 3)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	s := ix.Stats()
	if s.LPSolves == 0 || s.ConstraintPoints == 0 {
		t.Errorf("no LP accounting: %+v", s)
	}
	if s.Fragments != 50 {
		t.Errorf("fragments = %d, want one per point", s.Fragments)
	}
	rng := rand.New(rand.NewSource(54))
	for i := 0; i < 10; i++ {
		if _, err := ix.NearestNeighbor(randQuery(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	s = ix.Stats()
	if s.Queries != 10 || s.Candidates < 10 {
		t.Errorf("query stats: %+v", s)
	}
}

func BenchmarkBuildCorrectD8N1000(b *testing.B) {
	pts := uniquePoints(b, dataset.NameUniform, 1, 1000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuild(b, pts, Options{Algorithm: Correct})
	}
}

func BenchmarkQueryD8N1000(b *testing.B) {
	pts := uniquePoints(b, dataset.NameUniform, 2, 1000, 8)
	ix := mustBuild(b, pts, Options{Algorithm: Correct})
	rng := rand.New(rand.NewSource(3))
	qs := make([]vec.Point, 64)
	for i := range qs {
		qs[i] = randQuery(rng, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// The constraint-set cap preserves exactness (Lemma 1: any subset is sound)
// while bounding the LP size.
func TestMaxConstraintPointsSoundness(t *testing.T) {
	pts := uniquePoints(t, dataset.NameClustered, 110, 200, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere, MaxConstraintPoints: 16})
	if s := ix.Stats(); s.ConstraintPoints > 16*uint64(len(pts)) {
		t.Errorf("cap exceeded: %d constraint points for %d cells", s.ConstraintPoints, len(pts))
	}
	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 60; trial++ {
		q := randQuery(rng, 4)
		_, want := oracle.Nearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-want) > 1e-12 {
			t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, want)
		}
	}
	// Capped approximations contain the uncapped (tighter) ones.
	full := mustBuild(t, pts, Options{Algorithm: Sphere})
	for i := range pts {
		cf, _ := ix.CellApprox(i)
		ff, _ := full.CellApprox(i)
		for j := 0; j < 4; j++ {
			if cf.Lo[j] > ff.Lo[j]+1e-7 || cf.Hi[j] < ff.Hi[j]-1e-7 {
				t.Fatalf("cell %d: capped approx %v does not contain uncapped %v", i, cf, ff)
			}
		}
	}
}
