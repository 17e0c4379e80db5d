package main

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/vec"
)

func TestOracleAgreesWithTheScanner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := dataset.Uniform(rng, 300, 3)
	pool := dataset.Uniform(rng, 40, 3)
	o, err := buildOracle(pts, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScanner(pts)
	for qi, q := range pool {
		e := o.entries[qi]
		id, d2 := sc.Nearest(q)
		if e.id != id || e.dist2 != d2 || !e.unique {
			t.Fatalf("query %d: table has (%d, %v, unique %v), the scanner (%d, %v)", qi, e.id, e.dist2, e.unique, id, d2)
		}
		want := sc.KNearest(q, oracleK)
		if len(e.knn) != oracleK {
			t.Fatalf("query %d: %d k-NN distances", qi, len(e.knn))
		}
		got := make([]nncell.Neighbor, oracleK)
		for i, nb := range want {
			if e.knn[i] != nb.Dist2 {
				t.Fatalf("query %d: k-NN distance %d is %v, the scanner says %v", qi, i, e.knn[i], nb.Dist2)
			}
			got[i] = nncell.Neighbor{ID: nb.Index, Dist2: nb.Dist2}
		}
		if !o.checkKNN(qi, got) {
			t.Fatalf("query %d: the scanner's own k-NN answer was rejected", qi)
		}
		got[3].Dist2 *= 1.01
		if o.checkKNN(qi, got) {
			t.Fatalf("query %d: a wrong k-NN distance passed", qi)
		}
	}
}

func TestOracleMarksTiesAsNotUnique(t *testing.T) {
	pts := []vec.Point{{0, 0}, {2, 0}, {5, 5}}
	o, err := buildOracle(pts, []vec.Point{{1, 0}, {0.5, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.entries[0].unique || !o.entries[1].unique {
		t.Fatalf("unique flags: %v %v", o.entries[0].unique, o.entries[1].unique)
	}
	// On a tie either point is right; off the tie only the nearer one is.
	if !o.checkNN(0, nncell.Neighbor{ID: 1, Dist2: 1}) || !o.checkNN(0, nncell.Neighbor{ID: 0, Dist2: 1}) {
		t.Error("a tied neighbour was rejected")
	}
	if o.checkNN(1, nncell.Neighbor{ID: 1, Dist2: 0.25}) {
		t.Error("the wrong id passed on a unique minimum")
	}
}

// The checker must count one wrong id, one wrong distance and one lost
// acknowledged write.
func TestCheckerCountsWrongIDWrongDistanceAndLostWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := dataset.Uniform(rng, 200, 4)
	pool := dataset.Uniform(rng, 16, 4)
	table, err := buildOracle(pts, pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	// faulty answers from the table, but lies when told to.
	faulty := &readTarget{pool: pool, table: table, slots: make([]slot, 1)}
	lie := map[int]func(nb *nncell.Neighbor){
		5:  func(nb *nncell.Neighbor) { nb.ID = (nb.ID + 1) % len(pts) },
		11: func(nb *nncell.Neighbor) { nb.Dist2 *= 1.5 },
	}
	faulty.nn = nnFunc(func(q vec.Point) (nncell.Neighbor, error) {
		for qi := range pool {
			if &pool[qi][0] == &q[0] {
				nb := nncell.Neighbor{ID: table.entries[qi].id, Dist2: table.entries[qi].dist2}
				if f := lie[qi]; f != nil {
					f(&nb)
				}
				return nb, nil
			}
		}
		t.Fatal("query not from the pool")
		return nncell.Neighbor{}, nil
	})
	var tl tally
	fixedPass(0, len(pool), faulty, &tl, nil)
	if tl.attempted != len(pool) || tl.wrong != 2 || tl.errors != 0 {
		t.Errorf("after one wrong id and one wrong distance: %+v", tl)
	}

	// A mixed workload's mirror: the build points, two acknowledged inserts,
	// one acknowledged delete.
	ids := make([]int, len(pts))
	for i := range ids {
		ids[i] = i
	}
	m := newMirror(ids, pts)
	a, b := vec.Point{0.1, 0.2, 0.3, 0.4}, vec.Point{0.9, 0.8, 0.7, 0.6}
	m.inserted(1000, a)
	m.inserted(1001, b)
	m.deleted(17)
	live := func(drop ...int) batchNN {
		return func(qs []vec.Point) ([]nncell.Neighbor, error) {
			points, _ := m.snapshot()
			var kept []vec.Point
		next:
			for _, p := range points {
				for _, d := range drop {
					if p.Equal(m.points[d]) {
						continue next
					}
				}
				kept = append(kept, p)
			}
			sc := newScanner(kept)
			out := make([]nncell.Neighbor, len(qs))
			for i, q := range qs {
				out[i].ID, out[i].Dist2 = sc.Nearest(q)
			}
			return out, nil
		}
	}
	checked, wrong, _ := finalCheck(m, pool, map[string]batchNN{"good": live()})
	if wrong != 0 || checked != len(pool)+2 {
		t.Errorf("a node holding every acknowledged write: %d wrong of %d", wrong, checked)
	}
	checked, wrong, detail := finalCheck(m, pool, map[string]batchNN{"good": live(), "lossy": live(1001)})
	if wrong != 1 || checked != 2*(len(pool)+2) {
		t.Errorf("a node that lost one acknowledged insert: %d wrong of %d (%v)", wrong, checked, detail)
	}
}

type nnFunc func(q vec.Point) (nncell.Neighbor, error)

func (f nnFunc) NearestNeighbor(q vec.Point) (nncell.Neighbor, error) { return f(q) }

func TestMirrorConsistency(t *testing.T) {
	m := newMirror([]int{0, 1}, []vec.Point{{0, 0}, {1, 1}})
	q := vec.Point{0, 1}
	if !m.consistent(q, nncell.Neighbor{ID: 0, Dist2: 1}) {
		t.Error("a right answer was rejected")
	}
	if m.consistent(q, nncell.Neighbor{ID: 0, Dist2: 0.5}) {
		t.Error("a distance that is not the distance to the reported point passed")
	}
	if m.consistent(q, nncell.Neighbor{ID: 9, Dist2: 0}) {
		t.Error("an id nobody ever acknowledged passed")
	}
	// The index commits an insert before the writer learns its id.
	m.sending([]vec.Point{{0, 2}})
	if !m.consistent(q, nncell.Neighbor{ID: 2, Dist2: 1}) {
		t.Error("the point being inserted was rejected")
	}
	m.inserted(2, vec.Point{0, 2})
	if id, ok := m.oldest(); !ok || id != 2 {
		t.Fatalf("oldest = %d, %v", id, ok)
	}
	m.deleted(2)
	if !m.consistent(q, nncell.Neighbor{ID: 2, Dist2: 1}) {
		t.Error("a neighbour deleted between reply and check was rejected")
	}
}
