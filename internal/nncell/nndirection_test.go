package nncell

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vec"
)

// paperNNDirectionPicks is the paper's NN-Direction selection as this package
// implemented it before the whole pool became the constraint set: from the
// neighbor pool of point i, per axis direction, the nearest point and the
// point with the smallest angular deviation from the axis (≤ 4·d ids).
func paperNNDirectionPicks(ix *Index, i int, pool []int) []int {
	p := ix.point(i)
	d := ix.dim
	type pick struct {
		nearest, axial int
		nearD, axialD  float64
	}
	picks := make([]pick, 2*d)
	for k := range picks {
		picks[k] = pick{nearest: -1, axial: -1, nearD: math.Inf(1), axialD: math.Inf(1)}
	}
	for _, id := range pool {
		q := ix.point(id)
		d2 := vec.Euclidean{}.Dist2(p, q)
		for j := 0; j < d; j++ {
			comp := q[j] - p[j]
			if comp == 0 {
				continue
			}
			slot := 2 * j
			if comp < 0 {
				slot++
			}
			if d2 < picks[slot].nearD {
				picks[slot].nearD, picks[slot].nearest = d2, id
			}
			// Angular deviation from the axis: sin²θ = 1 − comp²/‖q−p‖².
			if dev := 1 - comp*comp/d2; d2 > 0 && dev < picks[slot].axialD {
				picks[slot].axialD, picks[slot].axial = dev, id
			}
		}
	}
	seen := map[int]bool{}
	var ids []int
	for _, pk := range picks {
		for _, id := range []int{pk.nearest, pk.axial} {
			if id >= 0 && !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// TestNNDirectionPoolTighterThanPicks checks the Lemma-1 argument behind
// constraining each cell with its whole neighbor pool: the pool is a superset
// of the paper's direction picks, so every stored MBR lies inside the MBR the
// picks alone produce for the same cell (tighter, never looser), stays a
// superset of the true cell (NN answers equal the scan oracle), and in d = 8
// is strictly tighter for most cells.
func TestNNDirectionPoolTighterThanPicks(t *testing.T) {
	const n, d = 2000, 8
	pts := uniquePoints(t, dataset.NameUniform, 131, n, d)
	ix := mustBuild(t, pts, Options{Algorithm: NNDirection})

	cc, ref := newCellCtx(d), newCellCtx(d)
	tighter := 0
	for i := range pts {
		pool := append([]int(nil), ix.nnDirectionPoints(cc, i)...)
		picks := paperNNDirectionPicks(ix, i, pool)
		if len(picks) > 4*d || len(picks) >= len(pool) {
			t.Fatalf("cell %d: %d picks from a pool of %d", i, len(picks), len(pool))
		}
		mbr, err := ix.solveMBR(ref, pts[i], ix.bisectors(ref, pts[i], picks))
		if err != nil {
			t.Fatal(err)
		}
		loose := ix.finishRect(mbr)
		stored := ix.cells[i][0]
		for j := 0; j < d; j++ {
			// Both sides carry the same Epsilon padding; the slack absorbs LP
			// round-off between two solves of different constraint sets.
			if stored.Lo[j] < loose.Lo[j]-1e-9 || stored.Hi[j] > loose.Hi[j]+1e-9 {
				t.Fatalf("cell %d dim %d: stored [%v, %v] not inside pick-based [%v, %v]",
					i, j, stored.Lo[j], stored.Hi[j], loose.Lo[j], loose.Hi[j])
			}
		}
		if stored.Volume() < 0.99*loose.Volume() {
			tighter++
		}
	}
	if tighter < n/2 {
		t.Fatalf("only %d of %d cells are tighter than their pick-based MBR", tighter, n)
	}

	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(132))
	for trial := 0; trial < 500; trial++ {
		q := randQuery(rng, d)
		wantID, wantD2 := oracle.Nearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != wantID || got.Dist2 != wantD2 {
			t.Fatalf("trial %d: got %+v, scan says id %d dist2 %v", trial, got, wantID, wantD2)
		}
	}
	if fb := ix.Stats().Fallbacks; fb != 0 {
		t.Fatalf("%d in-bounds queries fell back", fb)
	}
}
