package nncell

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/par"
	"repro/internal/vec"
)

// Dynamic maintenance follows a stage-then-commit protocol so that Insert and
// Delete are atomic with respect to failure: every linear program the
// operation needs is solved before the first committed structure (the stored
// cell rows, the cell directory) is touched. The only provisional mutations
// made before the solves are the coordinate-row appends of Insert and the row
// poisoning of Delete, each with its
// point-directory bits (stagePoint, hidePoint) — both are required for the
// solves to see the post-operation point set, and both are rolled back exactly
// on error, so CheckInvariants holds on every exit path. The affected cells
// are found on the cell directory (intersectingCells), the neighbours of a
// cell on the point directory; of the paged cell tree a write knows only how to
// drop it when a stored cell changes (storeCell, removeCell).

// Insert adds a new point and returns its id, maintaining the precomputed
// solution space per §2 of the paper: existing NN-cells can only shrink, and
// only cells whose region intersects the new point's cell are affected. The
// affected set is over-approximated soundly — every stored approximation
// intersecting the new cell's MBR is recomputed — so the index stays
// exact (the paper uses a sphere query for the same purpose; a rectangle
// query against the new cell's MBR is the tighter form of the same idea).
//
// Insert is InsertBatch with one point (batch.go): staging, the log record and
// the commit are the batch's, so on any error the index is left exactly as it
// was before the call.
func (ix *Index) Insert(p vec.Point) (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ids, err := ix.insertBatchLocked([]vec.Point{p}, true)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// stagePoint appends p as the next id — coordinate row, point-directory bits,
// an empty cell slot — and returns the id.
func (ix *Index) stagePoint(p vec.Point) int {
	id := ix.cells.grow()
	ix.ptsFlat = append(ix.ptsFlat, p...)
	growRows(ix.dir.rows, id>>6) // with pdir's, so a query can combine rows of the two
	ix.pdir.set(id, p)
	ix.alive++
	return id
}

// unstagePoint takes the most recently staged point back out.
func (ix *Index) unstagePoint() {
	id := ix.cells.len() - 1
	ix.pdir.clear(id)
	ix.ptsFlat = ix.ptsFlat[:id*ix.dim]
	ix.cells.truncate(id)
	ix.alive--
}

// hidePoint stages the removal of point id — row poisoned, point-directory
// bits cleared — and returns its coordinates for unhidePoint. ok is false, and
// nothing changed, when the point directory does not hold id: a dead id, or
// one that was never given out.
func (ix *Index) hidePoint(id int) (p vec.Point, ok bool) {
	if !ix.pdir.holds(id) {
		return nil, false
	}
	p = ix.point(id).Clone()
	ix.bury(id)
	ix.alive--
	return p, true
}

// unhidePoint puts a hidden point back.
func (ix *Index) unhidePoint(id int, p vec.Point) {
	copy(ix.ptsFlat[id*ix.dim:], p)
	ix.pdir.set(id, p)
	ix.alive++
}

// hasDuplicate reports whether a live point with exactly p's float64 bit
// patterns is already stored — the byte-exact dup-key discipline of Build, so
// −0.0 and +0.0 are different coordinates. The points of p's grid cell (the
// point directory's box at radius 0) are the only ones compared.
func (ix *Index) hasDuplicate(cc *cellCtx, p vec.Point) bool {
	cc.box, _ = ix.pdir.box(&cc.dirScratch, cc.box, p, 0, nil)
	cc.cand = appendBits(cc.cand[:0], cc.box)
next:
	for _, nb := range cc.cand {
		for j, x := range ix.ptsFlat[nb.ID*ix.dim:][:ix.dim] {
			if math.Float64bits(x) != math.Float64bits(p[j]) {
				continue next
			}
		}
		return true
	}
	return false
}

// Delete removes the point with the given id. The cells gaining its
// territory are its Voronoi neighbors; every cell whose approximation
// intersects the deleted cell's approximation is recomputed, a sound
// superset of those neighbors.
//
// Delete is DeleteBatch with one id (batch.go): the point is hidden from the
// approximation inputs, all affected cells are recomputed into staged
// rectangles, and only when every solve has succeeded are the stored cells and the
// directory changed. On error the point is restored and the index is
// unchanged.
func (ix *Index) Delete(id int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.deleteBatchLocked([]int{id}, true)
}

// minParallelRecompute is the affected-set size below which the per-cell LP
// work does not amortize worker startup; smaller batches recompute serially
// on the caller's cellCtx.
const minParallelRecompute = 4

// approximateCells approximates every listed cell against the current point
// set and returns the rows, positionally aligned with ids, in one slab. The
// committed index is not touched: Build keeps the slab (its ids are 0…n−1), the
// dynamic path stages it and copies its rows in via commitStaged only after the
// whole batch has succeeded. Callers hold ix.mu (write side) or, in Build, the
// only reference.
func (ix *Index) approximateCells(cc *cellCtx, ids []int) (cellStore, error) {
	staged := newCellStore(ix.dim, len(ids))
	err := eachCell(ix, cc, ids, func(wcc *cellCtx, k int) error {
		return ix.approximateCell(wcc, ids[k], staged.row(k))
	})
	return staged, err
}

// eachCell runs f(·, k) for every position k of ids; f stores its own result.
// Large batches run on par.Do with one cellCtx per worker, GOMAXPROCS of them
// (cc and fresh ones, all with cc's point tree when buildCtx gave it one),
// failing fast; smaller ones run serially on cc.
func eachCell(ix *Index, cc *cellCtx, ids []int, f func(wcc *cellCtx, k int) error) error {
	wccs := []*cellCtx{cc}
	for len(ids) >= minParallelRecompute && len(wccs) < min(runtime.GOMAXPROCS(0), len(ids)) {
		wcc := newCellCtx(ix.dim)
		wcc.pages = cc.pages
		wccs = append(wccs, wcc)
	}
	return par.Do(len(wccs), len(ids), func(w, k int) error {
		if err := f(wccs[w], k); err != nil {
			return fmt.Errorf("nncell: cell %d: %w", ids[k], err)
		}
		return nil
	})
}

// commitStaged copies the staged rows in: pure bookkeeping, no solves,
// cannot fail. An eagerly recomputed cell is fresh by definition, so any stale
// mark is cleared (aborting in-flight repairs of it — the epoch check in
// repairOne sees the cleared mark and drops the solve). Callers hold ix.mu
// (write side).
func (ix *Index) commitStaged(ids []int, staged cellStore) {
	for k, aid := range ids {
		ix.removeCell(aid)
		ix.storeCell(aid, staged.row(k))
		ix.clearStaleLocked(aid)
		ix.stats.updates.Add(1)
	}
}

// storeCell copies a cell's row into the slab and enters it into the cell
// directory.
func (ix *Index) storeCell(id int, row []float32) {
	ix.dropTree()
	copy(ix.cells.row(id), row)
	ix.dir.add(id, row)
}

// removeCell deletes a cell's row from the slab and the cell directory.
func (ix *Index) removeCell(id int) {
	ix.dropTree()
	ix.dir.remove(id)
	ix.cells.clear(id)
}

// intersectingCells appends to dst, ascending and distinct, the ids of the
// live cells whose stored approximation intersects one of rects: the cell
// directory's range query, every survivor verified against its row with
// Rect.Intersects' predicate, the one a rectangle search on the cell X-tree
// applies. A cell staged for removal still has its bits but no coordinate row,
// which keeps a delete from listing itself; one staged for insertion has no
// bits yet. Callers hold ix.mu.
func (ix *Index) intersectingCells(cc *cellCtx, dst []int, rects ...vec.Rect) []int {
	cc.hit = sized(cc.hit, len(ix.dir.rows[0]))
	clear(cc.hit)
	for _, r := range rects {
		cc.acc = ix.dir.overlapping(cc.acc, r)
		for w, word := range cc.acc {
			for word &^= cc.hit[w]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				if id := w<<6 | b; ix.point(id) != nil && ix.cells.intersects(id, r) {
					cc.hit[w] |= 1 << b
				}
			}
		}
	}
	for w, word := range cc.hit {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
		}
	}
	return dst
}
