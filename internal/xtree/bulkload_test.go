package xtree

import (
	"math/rand"
	"testing"

	"repro/internal/scan"
	"repro/internal/vec"
)

func TestBulkLoadInvariantsAndQueries(t *testing.T) { eachPolicy(t, testBulkLoadInvariantsAndQueries) }

func testBulkLoadInvariantsAndQueries(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(75))
	for _, n := range []int{0, 1, 7, 59, 60, 500, 1200} {
		for _, d := range []int{2, 12} {
			pts := randPoints(rng, n+1, d)[:n]
			items := make([]Entry, n)
			for i, p := range pts {
				items[i] = Entry{Rect: vec.PointRect(p), Data: int64(i)}
			}
			tr := bulkLoad(d, newTestPager(), Options{}, policy, items)
			if tr.Len() != n {
				t.Fatalf("n=%d d=%d: Len=%d", n, d, tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
			if tr.Supernodes() != 0 {
				t.Fatalf("n=%d d=%d: bulk load created supernodes", n, d)
			}
			if n == 0 {
				continue
			}
			oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
			for trial := 0; trial < 15; trial++ {
				q := randPoints(rng, 1, d)[0]
				_, want := oracle.Nearest(q)
				_, got, ok := tr.NearestNeighbor(q)
				if !ok || absDiff(got, want) > 1e-12 {
					t.Fatalf("n=%d d=%d: NN %v want %v", n, d, got, want)
				}
			}
		}
	}
}

func TestBulkLoadRectEntriesAndDynamics(t *testing.T) {
	eachPolicy(t, testBulkLoadRectEntriesAndDynamics)
}

func testBulkLoadRectEntriesAndDynamics(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(76))
	d := 4
	items := make([]Entry, 500)
	for i := range items {
		a := randPoints(rng, 1, d)[0]
		b := randPoints(rng, 1, d)[0]
		r := vec.PointRect(a)
		r.ExtendPoint(b)
		items[i] = Entry{Rect: r, Data: int64(i)}
	}
	tr := bulkLoad(d, newTestPager(), Options{}, policy, items)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Point queries agree with brute force.
	for trial := 0; trial < 50; trial++ {
		q := randPoints(rng, 1, d)[0]
		want := 0
		for _, it := range items {
			if it.Rect.Contains(q) {
				want++
			}
		}
		got := 0
		tr.PointQuery(q, func(Entry) bool { got++; return true })
		if got != want {
			t.Fatalf("trial %d: %d containing rects, want %d", trial, got, want)
		}
	}
	// Still dynamic: delete a third, insert some more.
	for i := 0; i < 150; i++ {
		if !tr.Delete(items[i].Rect, items[i].Data) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 500; i < 600; i++ {
		p := randPoints(rng, 1, d)[0]
		tr.Insert(vec.PointRect(p), int64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 450 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// Bulk loading must produce a much better packed tree than repeated inserts.
func TestBulkLoadPacksTighter(t *testing.T) { eachPolicy(t, testBulkLoadPacksTighter) }

func testBulkLoadPacksTighter(t *testing.T, policy overflowPolicy) {
	rng := rand.New(rand.NewSource(73))
	pts := randPoints(rng, 2000, 6)
	items := make([]Entry, len(pts))
	for i, p := range pts {
		items[i] = Entry{Rect: vec.PointRect(p), Data: int64(i)}
	}
	bulk := bulkLoad(6, newTestPager(), Options{}, policy, items).pg.LivePages()
	if inc := buildPointTree(t, pts, policy).pg.LivePages(); bulk >= inc {
		t.Errorf("bulk pages %d >= incremental pages %d", bulk, inc)
	}
}
