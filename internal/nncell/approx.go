package nncell

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lp"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// cellCtx bundles the reusable scratch state of cell construction: the LP
// solver (normalized once per constraint set, then run for all 2·d extent
// objectives), the bisector constraint matrix in one flat backing array, the
// objective / id buffers, the directory scratch of the neighbour searches
// (bitsets, and a candidate list as long as the fullest set folded: the whole
// point set only for a search that asks for all of it) and the bitsets of the
// affected-cell search. One cellCtx serves one goroutine at a time: a
// pool worker keeps one, the dynamic path one per operation. It also counts
// the LP work of the cell under construction, which approximateCell adds to
// the index's shared counters once per cell instead of once per solve.
type cellCtx struct {
	solver     lp.Solver
	prob       lp.Problem
	cons       []lp.Constraint
	consFlat   []float64  // len(cons)·d coefficient backing, row k at [k*d:(k+1)*d]
	c          []float64  // objective buffer (len d)
	mbr        vec.Rect   // solveMBR's result, valid until the next solve
	slack      []float64  // solveMBR: b − a·p of each bisector
	certified  []bool     // solveMBR: extent 2j (+e_j) or 2j+1 (−e_j) was the box bound without a solve
	ids        []int      // constraint-point id buffer
	dirScratch            // point-directory searches: neighbour pool, pruning range, duplicate check
	nbrs       []Neighbor // neighbour-pool result buffer
	acc, hit   []uint64   // intersectingCells: one rectangle's directory survivors, the verified union

	// pages is the X-tree over the points whose leaf pages define the Point
	// and Sphere selections. Only Build sets it, on its workers' contexts; a
	// context without one selects NN-Direction instead (effectiveAlgorithm).
	pages *xtree.Tree

	lpSolves, lpPivots, constraintPoints uint64 // of the current cell, not yet in ix.stats
}

func newCellCtx(d int) *cellCtx {
	return &cellCtx{c: make([]float64, d), mbr: vec.EmptyRect(d), certified: make([]bool, 2*d)}
}

// approximateCell computes the approximation MBR of point i's NN-cell using
// the configured algorithm and writes it into row (2·d floats) in its stored
// form (finishRect). It reads the coordinates and the point directory but
// never mutates the index, so the builder may call it from many goroutines,
// each with its own cellCtx and its own rows; it allocates nothing of its own.
func (ix *Index) approximateCell(cc *cellCtx, i int, row []float32) error {
	defer ix.flushLPCounts(cc)
	if ix.testHookApprox != nil {
		if err := ix.testHookApprox(i); err != nil {
			return err
		}
	}
	mbr, _, err := ix.solveCell(cc, i)
	if err != nil {
		return err
	}
	putRow(row, ix.finishRect(mbr))
	return nil
}

// solveCell selects point i's constraints and solves its (un-padded) MBR,
// returning the constraint set with it (both valid until the next solve on
// cc).
func (ix *Index) solveCell(cc *cellCtx, i int) (vec.Rect, []lp.Constraint, error) {
	p := ix.point(i)
	if p == nil {
		return vec.Rect{}, nil, fmt.Errorf("nncell: approximating tombstoned point %d", i)
	}
	if alg := ix.effectiveAlgorithm(cc); alg != Correct {
		cons := ix.bisectors(cc, p, ix.selectConstraintPoints(cc, i, alg))
		mbr, err := ix.solveMBR(cc, p, cons)
		return mbr, cons, err
	}
	return ix.correctMBR(cc, i)
}

// finishRect turns a solved MBR into the rectangle the index stores, in place:
// padded by epsilon (absorbing LP tolerance), clipped to the data space, then
// rounded outward to float32 values (cellStore). Padding and rounding keep the
// approximation a superset, so correctness is unaffected.
func (ix *Index) finishRect(r vec.Rect) vec.Rect {
	for j := range r.Lo {
		r.Lo[j] = float64(down32(max(r.Lo[j]-epsilon, ix.bounds.Lo[j])))
		r.Hi[j] = float64(up32(min(r.Hi[j]+epsilon, ix.bounds.Hi[j])))
	}
	return r
}

// bisectors converts constraint point ids into the half-spaces
// {x : d(x,P) ≤ d(x,Q)} = {x : 2(Q−P)·x ≤ ‖Q‖² − ‖P‖²}. The coefficient rows
// live in cc's flat backing array, so one cell's whole constraint set costs
// at most one (amortized zero) allocation; the returned slice aliases cc and
// is valid until the next bisectors call on the same ctx.
func (ix *Index) bisectors(cc *cellCtx, p vec.Point, ids []int) []lp.Constraint {
	d := ix.dim
	if need := len(ids) * d; cap(cc.consFlat) < need {
		cc.consFlat = make([]float64, need)
	} else {
		cc.consFlat = cc.consFlat[:need]
	}
	if cap(cc.cons) < len(ids) {
		cc.cons = make([]lp.Constraint, len(ids))
	} else {
		cc.cons = cc.cons[:len(ids)]
	}
	pn := p.Norm2()
	n := 0
	for _, id := range ids {
		q := ix.point(id)
		if q == nil {
			continue
		}
		a := cc.consFlat[n*d : (n+1)*d]
		for j := 0; j < d; j++ {
			a[j] = 2 * (q[j] - p[j])
		}
		cc.cons[n] = lp.Constraint{A: a, B: q.Norm2() - pn}
		n++
	}
	cc.constraintPoints += uint64(n)
	return cc.cons[:n]
}

// solveMBR runs the 2·d extent LPs of Definition 3 over the given bisector
// constraints and returns the (un-padded) MBR, which is cc.mbr. The constraint
// set is normalized and validated once; all 2·d objectives reuse it.
//
// An extent whose optimum is certified to lie on its face of the box is not
// solved: the box bound is the largest extent there is, and finishRect clips
// to it, so the stored row is the same. It is certified when p with that
// coordinate moved to the face satisfies every bisector (the point lies in
// the cell and on the face), or when the optimal vertex of an earlier solve
// for the cell already lies on it (cc.certified records which).
func (ix *Index) solveMBR(cc *cellCtx, p vec.Point, cons []lp.Constraint) (vec.Rect, error) {
	cc.prob = lp.Problem{NumVars: ix.dim, Cons: cons, Lo: ix.bounds.Lo, Hi: ix.bounds.Hi}
	if err := cc.solver.Load(&cc.prob); err != nil {
		return vec.Rect{}, err
	}
	d := ix.dim
	mbr := cc.mbr
	c := cc.c
	lo, hi := ix.bounds.Lo, ix.bounds.Hi
	cc.slack = cc.slack[:0]
	for _, con := range cons {
		ap := 0.0
		for j, a := range con.A {
			ap += a * p[j]
		}
		cc.slack = append(cc.slack, con.B-ap)
	}
	for j := 0; j < d; j++ {
		cc.certified[2*j] = cc.movedFeasible(cons, j, hi[j]-p[j])
		cc.certified[2*j+1] = cc.movedFeasible(cons, j, lo[j]-p[j])
	}
	for j := 0; j < d; j++ {
		mbr.Hi[j], mbr.Lo[j] = hi[j], lo[j]
		for face, sign := range [2]float64{1, -1} {
			if cc.certified[2*j+face] {
				continue
			}
			c[j] = sign
			res, err := cc.solver.Solve(c)
			c[j] = 0
			if err != nil {
				return vec.Rect{}, err
			}
			cc.noteLP(res)
			if face == 0 {
				mbr.Hi[j] = res.Value
			} else {
				mbr.Lo[j] = -res.Value
			}
			for k, x := range res.X {
				cc.certified[2*k] = cc.certified[2*k] || x >= hi[k]
				cc.certified[2*k+1] = cc.certified[2*k+1] || x <= lo[k]
			}
		}
		// The point itself is feasible, so the extent must straddle it;
		// enforce it against numerical shaving.
		if mbr.Lo[j] > p[j] {
			mbr.Lo[j] = p[j]
		}
		if mbr.Hi[j] < p[j] {
			mbr.Hi[j] = p[j]
		}
	}
	return mbr, nil
}

// movedFeasible reports whether the point p that solveMBR took the slack of
// cons at, moved by t along e_j, satisfies every constraint: a·(p + t·e_j) ≤
// b, that is a_j·t ≤ b − a·p.
func (cc *cellCtx) movedFeasible(cons []lp.Constraint, j int, t float64) bool {
	for k, con := range cons {
		if con.A[j]*t > cc.slack[k] {
			return false
		}
	}
	return true
}

// noteLP counts one solve on the ctx.
func (cc *cellCtx) noteLP(res *lp.Result) {
	cc.lpSolves++
	cc.lpPivots += uint64(res.Iterations)
}

// flushLPCounts moves the LP work counted on cc since the last flush into the
// index's counters: three atomic adds per cell on words every build worker
// shares, where two per solve and one per constraint set made 33 at d = 8.
func (ix *Index) flushLPCounts(cc *cellCtx) {
	ix.stats.lpSolves.Add(cc.lpSolves)
	ix.stats.lpPivots.Add(cc.lpPivots)
	ix.stats.constraintPoints.Add(cc.constraintPoints)
	cc.lpSolves, cc.lpPivots, cc.constraintPoints = 0, 0, 0
}

// correctMBR computes the exact MBR approximation with sound pruning: if the
// cell of P is contained in the ball B(P,R), then every point farther than
// 2R from P has a bisector that cannot cut the cell, so it can be dropped
// without changing the LP optimum. The radius starts at an estimate from the
// nearest neighbors and grows until the solved MBR certifies itself
// (max corner distance ≤ R) or every live point is included.
func (ix *Index) correctMBR(cc *cellCtx, i int) (vec.Rect, []lp.Constraint, error) {
	p := ix.point(i)
	r := ix.initialRadius(cc, i)
	maxR := cornerDist(p, ix.bounds)
	for {
		ids, all := ix.pointsWithin(cc, i, 2*r)
		cons := ix.bisectors(cc, p, ids)
		mbr, err := ix.solveMBR(cc, p, cons)
		if err != nil {
			return vec.Rect{}, nil, err
		}
		reach := cornerDist(p, mbr)
		if all || reach <= r {
			return mbr, cons, nil
		}
		r = math.Max(reach, 2*r)
		if r > maxR {
			r = maxR
		}
	}
}

// initialRadius estimates the cell radius as twice the distance to the
// nearest live neighbor; any underestimate only costs an extra pruning round,
// never correctness.
func (ix *Index) initialRadius(cc *cellCtx, i int) float64 {
	if nbrs := ix.nearestOthers(cc, i, 1); len(nbrs) > 0 {
		return 2 * math.Sqrt(nbrs[0].Dist2)
	}
	return cornerDist(ix.point(i), ix.bounds)
}

// pointsWithin returns the ids of live points other than i within distance
// radius of point i, ascending, and whether that is every live point: one box
// pass of the point directory and a distance test on its survivors instead of
// a linear scan per pruning round. Every point in the ball, i included, is
// counted in Stats.PruneVisited.
func (ix *Index) pointsWithin(cc *cellCtx, i int, radius float64) (ids []int, all bool) {
	p, r2 := ix.point(i), radius*radius
	cc.box, _ = ix.pdir.box(&cc.dirScratch, cc.box, p, outwardRadius(r2), nil)
	ids = cc.ids[:0]
	within, _, _ := cc.bounded(p, ix.ptsFlat, ix.pdir, cc.box, r2, nil)
	for _, nb := range within {
		if nb.ID != i {
			ids = append(ids, nb.ID)
		}
	}
	ix.stats.pruneVisited.Add(uint64(len(ids) + 1))
	cc.ids = ids
	return ids, len(ids) >= ix.alive-1
}

// cornerDist is the distance from p to the farthest corner of r.
func cornerDist(p vec.Point, r vec.Rect) float64 {
	s := 0.0
	for j := range p {
		d1 := p[j] - r.Lo[j]
		d2 := p[j] - r.Hi[j]
		s += math.Max(d1*d1, d2*d2)
	}
	return math.Sqrt(s)
}

// effectiveAlgorithm resolves the constraint selection actually used for
// the next solve: the configured algorithm, except that Point and Sphere
// select NN-Direction wherever there are no pages to select from, which is
// everywhere but in Build. The switch is sound by Lemma 1 (any subset only
// enlarges the approximation, queries stay exact).
func (ix *Index) effectiveAlgorithm(cc *cellCtx) Algorithm {
	alg := ix.opts.Algorithm
	if (alg == PointAlg || alg == Sphere) && cc.pages == nil {
		return NNDirection
	}
	return alg
}

// selectConstraintPoints implements the optimized constraint-selection
// algorithms (Point, Sphere, NN-Direction). Any subset of the full point set
// is sound (Lemma 1): fewer constraints can only enlarge the approximation.
func (ix *Index) selectConstraintPoints(cc *cellCtx, i int, alg Algorithm) []int {
	p := ix.point(i)
	switch alg {
	case PointAlg:
		return ix.capClosest(p, leafRegionPoints(cc.pages, i, func(r vec.Rect) bool { return r.Contains(p) }))
	case Sphere:
		radius := SphereRadius(ix.alive, ix.dim)
		return ix.capClosest(p, leafRegionPoints(cc.pages, i, func(r vec.Rect) bool { return r.IntersectsSphere(p, radius) }))
	case NNDirection:
		return ix.nnDirectionPoints(cc, i)
	default:
		panic(fmt.Sprintf("nncell: selectConstraintPoints with algorithm %v", alg))
	}
}

// capClosest truncates a constraint-point set to the MaxConstraintPoints
// closest points (no-op when the cap is unset or not exceeded).
func (ix *Index) capClosest(p vec.Point, ids []int) []int {
	limit := ix.opts.MaxConstraintPoints
	if limit <= 0 || len(ids) <= limit {
		return ids
	}
	metric := vec.Euclidean{}
	sort.Slice(ids, func(a, b int) bool {
		return metric.Dist2(p, ix.point(ids[a])) < metric.Dist2(p, ix.point(ids[b]))
	})
	return ids[:limit]
}

// leafRegionPoints gathers the data points other than i stored on leaf pages
// of the point X-tree whose page region satisfies pred — the paper's "Point"
// and "Sphere" selections.
func leafRegionPoints(pages *xtree.Tree, i int, pred func(vec.Rect) bool) []int {
	var ids []int
	pages.VisitLeafRegions(pred, func(e xtree.Entry) bool {
		if int(e.Data) != i {
			ids = append(ids, int(e.Data))
		}
		return true
	})
	return ids
}

// nnDirectionPoints returns the 8·d nearest live neighbors of point i (at
// least 16, at most 128), ascending by (Dist2, ID). The paper's NN-Direction
// selection — per axis direction, the nearest point and the point of smallest
// angular deviation, ≤ 4·d points — draws its picks from exactly such a pool;
// constraining the cell with the whole pool is a superset of those picks, so by
// Lemma 1 the MBR can only get tighter while remaining a superset of the true
// cell, and the constraint set stays O(d).
func (ix *Index) nnDirectionPoints(cc *cellCtx, i int) []int {
	ids := cc.ids[:0]
	for _, nb := range ix.nearestOthers(cc, i, min(max(8*ix.dim, 16), 128)) {
		ids = append(ids, nb.ID)
	}
	cc.ids = ids
	return ids
}

// nearestOthers returns the min(k, alive−1) live points nearest to point i,
// itself left out, ascending by (Dist2, ID); the slice is cc's until the next
// call. It is the point directory's search without the read path's seeds —
// Build has no cells to take them from, and a cell under repair has the wrong
// ones — so the first radius is the density start (pointDir.densityR2), and
// what it folds is construction work, not counted in Stats.Candidates.
// Callers hold ix.mu or, in Build, the only reference.
func (ix *Index) nearestOthers(cc *cellCtx, i, k int) []Neighbor {
	others := ix.alive - 1
	if k = min(k, others); k <= 0 {
		return nil
	}
	cc.seen = sized(cc.seen, len(ix.pdir.le[0]))
	clear(cc.seen)
	cc.seen[i>>6] |= 1 << (i & 63)
	r2 := math.Inf(1) // every other live point is wanted
	if k < others {
		r2 = ix.pdir.densityR2(k, ix.alive)
	}
	cc.nbrs, _, _, _ = ix.pdir.search(&cc.dirScratch, cc.nbrs[:0], k, ix.point(i), ix.ptsFlat, r2, math.Inf(1))
	return cc.nbrs
}
