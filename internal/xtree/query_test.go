package xtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// randRects returns n random axis-parallel boxes in [0,1]^d with edge lengths
// up to maxEdge, the rectangle analogue of randPoints.
func randRects(rng *rand.Rand, n, d int, maxEdge float64) []vec.Rect {
	rects := make([]vec.Rect, n)
	for i := range rects {
		lo := make(vec.Point, d)
		hi := make(vec.Point, d)
		for j := 0; j < d; j++ {
			lo[j] = rng.Float64()
			hi[j] = math.Min(1, lo[j]+rng.Float64()*maxEdge)
		}
		rects[i] = vec.Rect{Lo: lo, Hi: hi}
	}
	return rects
}

func buildRectTree(t testing.TB, rects []vec.Rect, policy overflowPolicy) *Tree {
	t.Helper()
	tr := newTree(rects[0].Dim(), newTestPager(), Options{}, policy)
	for i, r := range rects {
		tr.Insert(r, int64(i))
	}
	return tr
}

func collectPoint(tr *Tree, p vec.Point) []Entry {
	var out []Entry
	tr.PointQuery(p, func(e Entry) bool { out = append(out, e); return true })
	return out
}

// The iterative point query must reproduce the recursive PointQuery exactly:
// same payloads in the same visit order, and the same page-access accounting
// against the pager.
func TestQueryCtxPointMatchesRecursive(t *testing.T) {
	eachPolicy(t, testQueryCtxPointMatchesRecursive)
}

func testQueryCtxPointMatchesRecursive(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(71))
	for _, d := range []int{2, 3, 8} {
		rects := randRects(rng, 500, d, 0.4)
		tr := buildRectTree(t, rects, policy)
		var qc QueryCtx
		var ids []int64
		for qi := 0; qi < 100; qi++ {
			q := randPoints(rng, 1, d)[0]

			tr.pg.ResetStats()
			want := collectPoint(tr, q)
			recAcc := tr.pg.Stats().Accesses

			tr.pg.ResetStats()
			ids = tr.PointQueryData(&qc, q, ids[:0])
			batchAcc := tr.pg.Stats().Accesses
			if len(ids) != len(want) {
				t.Fatalf("d=%d q=%d: PointQueryData found %d, recursive %d", d, qi, len(ids), len(want))
			}
			for i := range want {
				if ids[i] != want[i].Data {
					t.Fatalf("d=%d q=%d: PointQueryData[%d]=%d, recursive %d", d, qi, i, ids[i], want[i].Data)
				}
			}
			if batchAcc != recAcc {
				t.Fatalf("d=%d q=%d: batched path touched %d pages, recursive %d", d, qi, batchAcc, recAcc)
			}
		}
	}
}

// NearestCandidate must agree with resolving the recursive point query by
// hand: fewest squared distance over all matches, ties to the smaller payload.
func TestNearestCandidateMatchesScan(t *testing.T) { eachPolicy(t, testNearestCandidateMatchesScan) }

func testNearestCandidateMatchesScan(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(79))
	for _, d := range []int{2, 8} {
		rects := randRects(rng, 600, d, 0.5)
		tr := buildRectTree(t, rects, policy)
		// Payload i resolves to the center of rectangle i via the SoA mirror.
		coords := make([]float64, 600*d)
		for i, r := range rects {
			copy(coords[i*d:], r.Center())
		}
		var qc QueryCtx
		for qi := 0; qi < 200; qi++ {
			q := randPoints(rng, 1, d)[0]
			want := int64(-1)
			wantD2 := math.Inf(1)
			matches := collectPoint(tr, q)
			for _, e := range matches {
				i := int(e.Data)
				d2 := vec.Dist2Flat(q, coords[i*d:(i+1)*d])
				if want < 0 || d2 < wantD2 || (d2 == wantD2 && e.Data < want) {
					want, wantD2 = e.Data, d2
				}
			}
			data, d2, count, ok := tr.NearestCandidate(&qc, q, coords)
			if ok != (want >= 0) || count != len(matches) {
				t.Fatalf("d=%d q=%d: ok=%v count=%d, want ok=%v count=%d", d, qi, ok, count, want >= 0, len(matches))
			}
			if ok && (data != want || d2 != wantD2) {
				t.Fatalf("d=%d q=%d: got %d@%g, want %d@%g", d, qi, data, d2, want, wantD2)
			}
		}
	}
}

// A warm QueryCtx answers every query form without allocating.
func TestQueryCtxZeroAllocs(t *testing.T) { eachPolicy(t, testQueryCtxZeroAllocs) }

func testQueryCtxZeroAllocs(t *testing.T, policy overflowPolicy) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(97))
	const n, d = 600, 8
	pts := randPoints(rng, n, d)
	tr := buildPointTree(t, pts, policy)
	coords := make([]float64, n*d)
	for i, p := range pts {
		copy(coords[i*d:], p)
	}
	qs := randPoints(rng, 64, d)

	var qc QueryCtx
	ids := make([]int64, 0, n)
	nbrs := make([]Neighbor, 0, 16)
	warm := func() {
		for _, q := range qs {
			ids = tr.PointQueryData(&qc, q, ids[:0])
			tr.NearestCandidate(&qc, q, coords)
			nbrs = tr.KNearestCtx(&qc, q, 10, nbrs[:0])
		}
	}
	warm()
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		q := qs[k%len(qs)]
		k++
		ids = tr.PointQueryData(&qc, q, ids[:0])
		tr.NearestCandidate(&qc, q, coords)
		nbrs = tr.KNearestCtx(&qc, q, 10, nbrs[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm query engine allocates %v/op, want 0", allocs)
	}
}
