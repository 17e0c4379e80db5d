package xtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
)

func newTestPager() *pager.Pager {
	return pager.New(pager.Config{PageSize: 4096, CachePages: 0})
}

func randPoints(rng *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// eachPolicy runs f as one subtest per overflow policy: everything but the
// supernode cases holds for the X-tree and the R*-tree alike, on one engine.
func eachPolicy(t *testing.T, f func(t *testing.T, policy overflowPolicy)) {
	for _, p := range []struct {
		name   string
		policy overflowPolicy
	}{{"xtree", splitBKK}, {"rstar", reinsertBKSS}} {
		t.Run(p.name, func(t *testing.T) { f(t, p.policy) })
	}
}

func buildPointTree(t testing.TB, pts []vec.Point, policy overflowPolicy) *Tree {
	t.Helper()
	tr := newTree(pts[0].Dim(), newTestPager(), Options{}, policy)
	for i, p := range pts {
		tr.Insert(vec.PointRect(p), int64(i))
	}
	return tr
}

// The overflow policy is the constructor's choice and nothing else's.
func TestConstructorsFixThePolicy(t *testing.T) {
	if p := New(3, newTestPager(), Options{}).policy; p != splitBKK {
		t.Errorf("New: policy %d", p)
	}
	if p := BulkLoad(3, newTestPager(), Options{}, nil).policy; p != splitBKK {
		t.Errorf("BulkLoad: policy %d", p)
	}
	if p := NewRStar(3, newTestPager()).policy; p != reinsertBKSS {
		t.Errorf("NewRStar: policy %d", p)
	}
}

func TestEmptyTree(t *testing.T) { eachPolicy(t, testEmptyTree) }

func testEmptyTree(t *testing.T, policy overflowPolicy) {
	tr := newTree(4, newTestPager(), Options{}, policy)
	if tr.Len() != 0 || tr.Height() != 1 || tr.Supernodes() != 0 {
		t.Errorf("Len=%d Height=%d Super=%d", tr.Len(), tr.Height(), tr.Supernodes())
	}
	if _, _, ok := tr.NearestNeighbor(vec.Point{0, 0, 0, 0}); ok {
		t.Error("NN on empty tree returned ok")
	}
	if _, _, ok := tr.NearestNeighborDF(vec.Point{0, 0, 0, 0}); ok {
		t.Error("depth-first NN on empty tree returned ok")
	}
	var qc QueryCtx
	if got := tr.KNearestCtx(&qc, vec.Point{0, 0, 0, 0}, 3, nil); got != nil {
		t.Errorf("KNearest on empty tree = %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndInvariants(t *testing.T) { eachPolicy(t, testInsertAndInvariants) }

func testInsertAndInvariants(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{2, 6, 12, 16} {
		pts := randPoints(rng, 600, d)
		tr := buildPointTree(t, pts, policy)
		if tr.Len() != 600 {
			t.Fatalf("d=%d: Len=%d", d, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if tr.Height() < 2 {
			t.Errorf("d=%d: tree did not grow (height %d)", d, tr.Height())
		}
		if policy == reinsertBKSS && tr.Supernodes() != 0 {
			t.Errorf("d=%d: R*-tree formed %d supernodes", d, tr.Supernodes())
		}
	}
}

func TestPointQueryFindsInsertedPoints(t *testing.T) {
	eachPolicy(t, testPointQueryFindsInsertedPoints)
}

func testPointQueryFindsInsertedPoints(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(22))
	pts := randPoints(rng, 400, 5)
	tr := buildPointTree(t, pts, policy)
	for i, p := range pts {
		found := false
		tr.PointQuery(p, func(e Entry) bool {
			if e.Data == int64(i) {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("point %d not found", i)
		}
	}
}

func TestNearestNeighborMatchesScan(t *testing.T) { eachPolicy(t, testNearestNeighborMatchesScan) }

func testNearestNeighborMatchesScan(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{2, 8, 14} {
		pts := randPoints(rng, 500, d)
		tr := buildPointTree(t, pts, policy)
		oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
		for trial := 0; trial < 80; trial++ {
			q := randPoints(rng, 1, d)[0]
			_, wantD2 := oracle.Nearest(q)
			_, gotD2, ok := tr.NearestNeighbor(q)
			if !ok || absDiff(gotD2, wantD2) > 1e-12 {
				t.Fatalf("d=%d trial %d: got %v want %v ok=%v", d, trial, gotD2, wantD2, ok)
			}
			// The depth-first search [RKV 95] must agree.
			if _, dfD2, _ := tr.NearestNeighborDF(q); absDiff(dfD2, wantD2) > 1e-12 {
				t.Fatalf("d=%d trial %d: DF NN dist %v, scan %v", d, trial, dfD2, wantD2)
			}
		}
	}
}

func TestKNearestMatchesScan(t *testing.T) { eachPolicy(t, testKNearestMatchesScan) }

func testKNearestMatchesScan(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(24))
	pts := randPoints(rng, 300, 6)
	tr := buildPointTree(t, pts, policy)
	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	var qc QueryCtx
	for trial := 0; trial < 25; trial++ {
		q := randPoints(rng, 1, 6)[0]
		k := 1 + rng.Intn(8)
		want := oracle.KNearest(q, k)
		got := tr.KNearestCtx(&qc, q, k, nil)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		for i := range got {
			if absDiff(got[i].Dist2, want[i].Dist2) > 1e-12 {
				t.Fatalf("k=%d rank %d: %v want %v", k, i, got[i].Dist2, want[i].Dist2)
			}
		}
	}
	if got := tr.KNearestCtx(&qc, make(vec.Point, 6), 1000, nil); len(got) != 300 {
		t.Errorf("k larger than the dataset returned %d results", len(got))
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) { eachPolicy(t, testRangeSearchMatchesBruteForce) }

func testRangeSearchMatchesBruteForce(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(25))
	pts := randPoints(rng, 400, 3)
	tr := buildPointTree(t, pts, policy)
	for trial := 0; trial < 40; trial++ {
		lo := make(vec.Point, 3)
		hi := make(vec.Point, 3)
		for j := range lo {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[j], hi[j] = a, b
		}
		q := vec.NewRect(lo, hi)
		want := 0
		for _, p := range pts {
			if q.Contains(p) {
				want++
			}
		}
		got := 0
		tr.Search(q, func(Entry) bool { got++; return true })
		if got != want {
			t.Fatalf("trial %d: got %d, want %d", trial, got, want)
		}
	}
}

// Overlapping rectangle entries in high dimension force the directory-split
// overlap threshold to trigger and should produce supernodes.
func TestSupernodeCreation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	d := 12
	pg := newTestPager()
	tr := New(d, pg, Options{})
	// Heavily overlapping rectangles: each spans a random half of every axis.
	for i := 0; i < 3000; i++ {
		lo := make(vec.Point, d)
		hi := make(vec.Point, d)
		for j := 0; j < d; j++ {
			c := rng.Float64()
			lo[j] = c * 0.5
			hi[j] = 0.5 + c*0.5
		}
		tr.Insert(vec.NewRect(lo, hi), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Supernodes() == 0 {
		t.Fatal("no supernode formed on the overlapping workload: every split was acceptable")
	}
	// Queries must still be exact.
	q := make(vec.Point, d)
	for j := range q {
		q[j] = 0.5
	}
	count := 0
	tr.PointQuery(q, func(Entry) bool { count++; return true })
	if count == 0 {
		t.Error("point query in the overlap region found nothing")
	}
}

func TestSupernodeAccessCostsMultiplePages(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	d := 12
	pg := newTestPager()
	tr := New(d, pg, Options{MaxOverlap: 1e-9}) // nearly always refuse splits
	for i := 0; i < 2500; i++ {
		lo := make(vec.Point, d)
		hi := make(vec.Point, d)
		for j := 0; j < d; j++ {
			c := rng.Float64()
			lo[j] = c * 0.6
			hi[j] = 0.4 + c*0.6
		}
		tr.Insert(vec.NewRect(lo, hi), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Supernodes() == 0 {
		t.Fatal("no supernode formed although splits were refused")
	}
	// A point query at the centre of a supernode's first entry visits that
	// node and every ancestor of it; the pager must count each visited node's
	// pages, a supernode's several.
	var super *node
	var find func(n *node)
	find = func(n *node) {
		if super != nil {
			return
		}
		if n.isSuper() {
			super = n
			return
		}
		for i := range n.entries {
			if n.level > 0 {
				find(n.entries[i].child)
			}
		}
	}
	find(tr.root)
	r := super.entries[0].rect
	q := make(vec.Point, d)
	for j := range q {
		q[j] = (r.Lo[j] + r.Hi[j]) / 2
	}
	var pages, nodes int
	var walk func(n *node)
	walk = func(n *node) {
		pages, nodes = pages+len(n.pages), nodes+1
		for i := range n.entries {
			if n.level > 0 && n.entries[i].rect.Contains(q) {
				walk(n.entries[i].child)
			}
		}
	}
	walk(tr.root)
	before := pg.Stats().Accesses
	tr.PointQuery(q, func(Entry) bool { return true })
	if got := pg.Stats().Accesses - before; got != uint64(pages) || pages <= nodes {
		t.Fatalf("point query at %v: %d page accesses for %d nodes of %d pages (a supernode of %d among them)", q, got, nodes, pages, len(super.pages))
	}
}

func TestMixedWorkload(t *testing.T) { eachPolicy(t, testMixedWorkload) }

func testMixedWorkload(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(30))
	tr := newTree(3, newTestPager(), Options{}, policy)
	var live []vec.Point
	for op := 0; op < 1500; op++ {
		p := vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		if len(live) == 0 || rng.Float64() < 0.65 {
			tr.Insert(vec.PointRect(p), int64(len(live)))
			live = append(live, p)
		} else {
			want := math.Inf(1)
			for _, x := range live {
				want = math.Min(want, vec.Euclidean{}.Dist2(p, x))
			}
			if _, got, ok := tr.NearestNeighbor(p); !ok || absDiff(got, want) > 1e-12 {
				t.Fatalf("op %d: NN at %v, scan %v", op, got, want)
			}
		}
		if op%250 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len=%d, live=%d", tr.Len(), len(live))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageAccountingDuringQueries(t *testing.T) { eachPolicy(t, testPageAccountingDuringQueries) }

func testPageAccountingDuringQueries(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(10))
	tr := buildPointTree(t, randPoints(rng, 1000, 8), policy)
	q := vec.Point{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for name, search := range map[string]func(){
		"best-first":  func() { tr.NearestNeighbor(q) },
		"depth-first": func() { tr.NearestNeighborDF(q) },
	} {
		tr.pg.ResetStats()
		search()
		if acc := tr.pg.Stats().Accesses; acc == 0 || acc > uint64(tr.pg.LivePages()) {
			t.Errorf("%s NN accessed %d pages of a tree of %d", name, acc, tr.pg.LivePages())
		}
	}
}

func TestDimMismatchPanics(t *testing.T) {
	tr := New(2, newTestPager(), Options{})
	defer func() {
		if recover() == nil {
			t.Error("no panic on dim mismatch")
		}
	}()
	tr.Insert(vec.PointRect(vec.Point{1, 2, 3}), 0)
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func BenchmarkInsertD16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New(16, newTestPager(), Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := make(vec.Point, 16)
		for j := range p {
			p[j] = rng.Float64()
		}
		tr.Insert(vec.PointRect(p), int64(i))
	}
}

func BenchmarkNearestNeighborD16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 10000, 16)
	tr := buildPointTree(b, pts, splitBKK)
	qs := randPoints(rng, 64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NearestNeighbor(qs[i%len(qs)])
	}
}

// leafMirrors counts the leaves that share one SoA mirror and those that keep
// two, over the whole tree.
func leafMirrors(t *Tree) (shared, split int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.level > 0 {
			for i := range n.entries {
				walk(n.entries[i].child)
			}
			return
		}
		if n.sharesMirror() {
			shared++
		} else if len(n.entries) > 0 {
			split++
		}
	}
	walk(t.root)
	return shared, split
}

// A leaf of points keeps one mirror for both corners — every leaf of a data
// index, inserted or bulk-loaded — and gets the second one back the moment an
// entry with extent arrives. The invariant check compares the mirror with the
// entries either way, and the flat query engine must keep matching the
// recursive search.
func TestPointLeavesShareOneMirror(t *testing.T) {
	const d = 5
	rng := rand.New(rand.NewSource(31))
	pts := randPoints(rng, 600, d)
	pts[7][2] = 0 // +0.0 in Lo and Hi alike: still a point
	items := make([]Entry, len(pts))
	for i, p := range pts {
		items[i] = Entry{Rect: vec.Rect{Lo: p, Hi: p}, Data: int64(i)}
	}
	for name, tr := range map[string]*Tree{
		"inserted":    buildPointTree(t, pts, splitBKK),
		"bulk-loaded": BulkLoad(d, newTestPager(), Options{}, items),
	} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if shared, split := leafMirrors(tr); shared == 0 || split != 0 {
			t.Fatalf("%s: %d leaves share a mirror, %d do not; every leaf holds points only", name, shared, split)
		}

		// One box, and one "point" whose corners differ in the sign of zero.
		box := vec.Rect{Lo: pts[0].Clone(), Hi: pts[0].Clone()}
		box.Hi[1] += 0.05
		zero := vec.Rect{Lo: pts[1].Clone(), Hi: pts[1].Clone()}
		zero.Lo[3], zero.Hi[3] = math.Copysign(0, -1), 0
		tr.Insert(box, 1000)
		tr.Insert(zero, 1001)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: after the boxes: %v", name, err)
		}
		if _, split := leafMirrors(tr); split < 1 || split > 2 {
			t.Fatalf("%s: %d leaves keep two mirrors after two entries with extent", name, split)
		}
		var qc QueryCtx
		for trial := 0; trial < 200; trial++ {
			q := randPoints(rng, 1, d)[0]
			if trial%4 == 0 {
				q = pts[rng.Intn(len(pts))]
			}
			want, wantD2, _ := tr.NearestNeighbor(q)
			got, _ := tr.NearestNeighborCtx(&qc, q)
			if got.Dist2 != wantD2 {
				t.Fatalf("%s q=%v: flat engine %d at %v, recursive search %d at %v", name, q, got.Entry.Data, got.Dist2, want.Data, wantD2)
			}
		}
		var hits []int64
		if hits = tr.PointQueryData(&qc, box.Hi, hits[:0]); !slices.Contains(hits, 1000) {
			t.Fatalf("%s: point query at the box's upper corner misses it: %v", name, hits)
		}
	}
}
