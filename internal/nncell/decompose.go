package nncell

import (
	"sort"

	"repro/internal/lp"
	"repro/internal/vec"
)

// Decompose returns the MBR decomposition of Definition 5 of every live cell,
// indexed by point id (nil for a tombstone): each cell's constraints are
// selected again the way Build selects them, and the cell is cut into equal
// slabs along its most oblique dimensions, at most k fragments in total (the
// paper's k ≤ 10), each with its own MBR, rounded outward like a stored cell
// (finishRect). Below k = 2 a cell is one fragment, the rectangle the index
// stores for it.
//
// The index stores and serves one rectangle per cell: the cell directory keys
// a cell by point id, and a cell's bits are the union of its fragments' stripe
// ranges, which is its MBR's, so fragments would buy the served query nothing
// while every write re-solved them. What decomposition cuts is the overlap of
// the paged X-tree of the paper's Fig. 13, which is where it is measured. The
// index is not changed; the extra LP solves are not counted in Stats.
func (ix *Index) Decompose(k int) ([][]vec.Rect, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cc := ix.buildCtx()
	if cc.pages != nil {
		defer cc.pages.Release()
	}
	ids := make([]int, 0, ix.alive)
	for id := 0; id < ix.cells.len(); id++ {
		if ix.cells.has(id) {
			ids = append(ids, id)
		}
	}
	frags := make([][]vec.Rect, len(ids))
	err := eachCell(ix, cc, ids, func(wcc *cellCtx, n int) error {
		mbr, cons, err := ix.solveCell(wcc, ids[n])
		if err == nil {
			frags[n], err = ix.decompose(wcc, cons, mbr.Clone(), k)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]vec.Rect, ix.cells.len())
	for n, id := range ids {
		out[id] = frags[n]
	}
	return out, nil
}

// decompose cuts one cell, solved as mbr under cons, into equal slabs along
// its most oblique dimensions; each fragment gets its own MBR (solved with the
// same constraints restricted to the slab box), and empty fragments are
// dropped. Partition counts per dimension decrease with decreasing
// obliqueness, realized here by repeated doubling in rank order until the
// budget k is exhausted.
//
// The constraint set is loaded into cc's solver once; every slab LP (both the
// trial splits of the obliqueness ranking and the final fragment grid) only
// swaps the variable box via SetBounds, skipping re-normalization.
func (ix *Index) decompose(cc *cellCtx, cons []lp.Constraint, mbr vec.Rect, k int) ([]vec.Rect, error) {
	if k < 2 {
		return []vec.Rect{ix.finishRect(mbr)}, nil
	}
	cc.prob = lp.Problem{NumVars: ix.dim, Cons: cons, Lo: ix.bounds.Lo, Hi: ix.bounds.Hi}
	if err := cc.solver.Load(&cc.prob); err != nil {
		return nil, err
	}
	ranked := ix.rankDimensions(cc, mbr)
	// Assign partition counts by doubling along the obliqueness ranking
	// until the budget is exhausted: k=10 → (2,2,2), k=4 → (2,2), k=16 →
	// (4,2,2) after the second pass, etc.
	counts := make(map[int]int)
	prod := 1
	for pass := 0; ; pass++ {
		progressed := false
		for _, dim := range ranked {
			if prod*2 > k {
				break
			}
			if counts[dim] == 0 {
				counts[dim] = 1
			}
			counts[dim] *= 2
			prod *= 2
			progressed = true
		}
		if !progressed || prod*2 > k {
			break
		}
	}
	splitDims := make([]int, 0, len(counts))
	for dim := range counts {
		splitDims = append(splitDims, dim)
	}
	sort.Ints(splitDims)

	// Enumerate the slab grid with a mixed-radix counter.
	idx := make([]int, len(splitDims))
	var frags []vec.Rect
	for {
		box := mbr.Clone()
		degenerate := false
		for t, dim := range splitDims {
			n := counts[dim]
			lo, hi := mbr.Lo[dim], mbr.Hi[dim]
			w := (hi - lo) / float64(n)
			if w <= 0 {
				degenerate = true
				break
			}
			box.Lo[dim] = lo + float64(idx[t])*w
			box.Hi[dim] = lo + float64(idx[t]+1)*w
		}
		if degenerate {
			// Zero extent in a split dimension: the whole cell is this slab.
			return []vec.Rect{ix.finishRect(mbr)}, nil
		}
		frag, ok, err := ix.fragmentMBR(cc, box)
		if err != nil {
			return nil, err
		}
		if ok {
			frags = append(frags, ix.finishRect(frag))
		}
		// Advance the counter.
		t := 0
		for ; t < len(splitDims); t++ {
			idx[t]++
			if idx[t] < counts[splitDims[t]] {
				break
			}
			idx[t] = 0
		}
		if t == len(splitDims) {
			break
		}
	}
	if len(frags) == 0 {
		// All slabs infeasible can only be numerical shaving; fall back to
		// the undecomposed (always sound) approximation.
		frags = []vec.Rect{ix.finishRect(mbr)}
	}
	return frags, nil
}

// fragmentMBR solves the extent LPs restricted to one slab box, against the
// constraint set already loaded in cc's solver. ok=false means the cell does
// not reach this slab (LP infeasible), so the fragment is empty and needs no
// index entry.
func (ix *Index) fragmentMBR(cc *cellCtx, box vec.Rect) (vec.Rect, bool, error) {
	if err := cc.solver.SetBounds(box.Lo, box.Hi); err != nil {
		return vec.Rect{}, false, err
	}
	mbr, err := ix.solveFragmentBox(cc)
	if err == lp.ErrInfeasible {
		return vec.Rect{}, false, nil
	}
	if err != nil {
		return vec.Rect{}, false, err
	}
	return mbr, true, nil
}

// solveFragmentBox is solveMBR without the "must contain p" correction
// (a fragment of P's cell generally does not contain P itself), over the
// solver's currently loaded constraints and box.
func (ix *Index) solveFragmentBox(cc *cellCtx) (vec.Rect, error) {
	d := ix.dim
	mbr := vec.EmptyRect(d)
	c := cc.c
	for j := 0; j < d; j++ {
		c[j] = 1
		res, err := cc.solver.Solve(c)
		if err != nil {
			c[j] = 0
			return vec.Rect{}, err
		}
		cc.noteLP(res)
		mbr.Hi[j] = res.Value
		c[j] = -1
		res, err = cc.solver.Solve(c)
		if err != nil {
			c[j] = 0
			return vec.Rect{}, err
		}
		cc.noteLP(res)
		mbr.Lo[j] = -res.Value
		c[j] = 0
		if mbr.Lo[j] > mbr.Hi[j] {
			// Numerical inversion on a degenerate fragment.
			mid := (mbr.Lo[j] + mbr.Hi[j]) / 2
			mbr.Lo[j], mbr.Hi[j] = mid, mid
		}
	}
	return mbr, nil
}

// rankDimensions orders dimensions by decreasing obliqueness: per dimension,
// how much total approximation volume a trial 2-way decomposition would save
// (the paper's goal function in Definition 4). The trials run against the
// constraint set already loaded in cc's solver.
func (ix *Index) rankDimensions(cc *cellCtx, mbr vec.Rect) []int {
	d := ix.dim
	score := make([]float64, d)
	vol := mbr.Volume()
	for j := 0; j < d; j++ {
		if mbr.Extent(j) <= 4*epsilon {
			score[j] = -1
			continue
		}
		mid := (mbr.Lo[j] + mbr.Hi[j]) / 2
		loBox, hiBox := mbr.SplitAt(j, mid)
		sub := 0.0
		for _, box := range []vec.Rect{loBox, hiBox} {
			frag, ok, err := ix.fragmentMBR(cc, box)
			if err != nil {
				score[j] = -1
				sub = vol
				break
			}
			if ok {
				sub += frag.Volume()
			}
		}
		score[j] = vol - sub
	}
	order := make([]int, d)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return score[order[a]] > score[order[b]] })
	return order
}
