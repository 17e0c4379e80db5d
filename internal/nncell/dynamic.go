package nncell

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
	"repro/internal/wal"
)

// Dynamic maintenance follows a stage-then-commit protocol so that Insert and
// Delete are atomic with respect to failure: every linear program the
// operation needs is solved before the first committed structure (the stored
// fragment sets, the cell directory, the fragment counter) is touched. The
// only provisional mutations made before the solves are the coordinate-row
// appends of Insert and the row poisoning of Delete, each with its
// point-directory bits (stagePoint, hidePoint) — both are required for the
// solves to see the post-operation point set, and both are rolled back exactly
// on error, so CheckInvariants holds on every exit path. The affected cells
// are found on the cell directory (intersectingCells), the neighbours of a
// cell on the point directory; of the X-trees a write knows only how to drop
// them.

// Insert adds a new point and returns its id, maintaining the precomputed
// solution space per §2 of the paper: existing NN-cells can only shrink, and
// only cells whose region intersects the new point's cell are affected. The
// affected set is over-approximated soundly — every stored approximation
// intersecting the new cell's outer MBR is recomputed — so the index stays
// exact (the paper uses a sphere query for the same purpose; a rectangle
// query against the new cell's MBR is the tighter form of the same idea).
//
// The affected-cell recomputation runs on the same worker pool pattern as
// Build; all recomputed fragment sets are staged and committed only after
// every LP solve has succeeded. On any error the index is left exactly as it
// was before the call.
func (ix *Index) Insert(p vec.Point) (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.insertLocked(p, true)
}

// insertLocked is Insert under an already-held write lock. logIt selects
// whether the mutation is appended to the attached WAL: true for foreground
// inserts, false during replay (the record being applied came FROM the log).
// The WAL append sits between staging and commit: it runs only after every
// LP has succeeded (no log records for mutations that would have failed
// anyway) and before any committed structure changes, so an append failure
// rolls back to the exact pre-call state and the mutation is never
// acknowledged — the crash-consistency contract is "logged iff committed
// iff acknowledged".
func (ix *Index) insertLocked(p vec.Point, logIt bool) (int, error) {
	if p.Dim() != ix.dim {
		return 0, fmt.Errorf("nncell: insert of %d-dim point into %d-dim index", p.Dim(), ix.dim)
	}
	if !validPoint(p, ix.bounds) {
		return 0, fmt.Errorf("nncell: point %v outside data space %v", p, ix.bounds)
	}
	cc := newCellCtx(ix.dim)
	if ix.hasDuplicate(cc, p) {
		return 0, fmt.Errorf("nncell: duplicate point %v", p)
	}

	// Stage the point itself: the approximation LPs must see the
	// post-insert point set (the point directory drives constraint selection,
	// alive drives the pruning termination check). Everything appended here
	// is rolled back if any solve fails.
	id := ix.stagePoint(p)
	rollback := ix.unstagePoint

	frags, err := ix.approximateCell(cc, id)
	if err != nil {
		rollback()
		return 0, fmt.Errorf("nncell: approximating new cell: %w", err)
	}

	// Recompute every cell whose approximation intersects the new cell's
	// outer MBR (superset of the truly shrinking cells) into a staged set;
	// nothing committed is touched until all of them succeed. With
	// LazyRepair the recompute is deferred: the affected cells keep their
	// current MBRs — still supersets, the insert only shrank them — and are
	// marked stale for the repair pool at commit (see repair.go).
	affected := ix.intersectingCells(cc, nil, outerMBR(frags, ix.dim))
	lazy := ix.lazyForLocked(len(affected))
	var staged [][]vec.Rect
	if !lazy {
		staged, err = ix.approximateCells(cc, affected)
		if err != nil {
			rollback()
			return 0, err
		}
	}

	// Make the mutation durable before committing it: every solve has
	// succeeded, so the only remaining failure mode is the log itself, and a
	// failed append must leave the index exactly as it was (the caller never
	// gets an id for a record that is not on disk).
	if logIt && ix.wlog != nil {
		if err := ix.wlog.Append(wal.Record{Kind: wal.KindInsert, ID: int64(id), Point: p}); err != nil {
			rollback()
			return 0, fmt.Errorf("nncell: logging insert: %w", err)
		}
	}

	// Commit: every LP has succeeded and the record is logged, so the
	// remaining work is pure bookkeeping that cannot fail.
	ix.storeCell(id, frags)
	if lazy {
		ix.markStaleLocked(affected)
	} else {
		ix.commitStaged(affected, staged)
	}
	ix.notifyMutationLocked(affected, []vec.Point{p}, id)
	return id, nil
}

// stagePoint appends p as the next id — coordinate row, point-directory bits,
// an empty cell slot — and returns the id. Like the three functions after it,
// it changes the live rows and so drops the trees derived from them.
func (ix *Index) stagePoint(p vec.Point) int {
	ix.dropTree()
	id := len(ix.cells)
	ix.ptsFlat = append(ix.ptsFlat, p...)
	growRows(ix.dir.rows, id>>6) // with pdir's, so a query can combine rows of the two
	ix.pdir.set(id, p)
	ix.cells = append(ix.cells, nil)
	ix.alive++
	return id
}

// unstagePoint takes the most recently staged point back out.
func (ix *Index) unstagePoint() {
	ix.dropTree()
	id := len(ix.cells) - 1
	ix.pdir.clear(id)
	ix.ptsFlat = ix.ptsFlat[:id*ix.dim]
	ix.cells = ix.cells[:id]
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
	ix.dropTree()
	p = ix.point(id).Clone()
	ix.bury(id)
	ix.alive--
	return p, true
}

// unhidePoint puts a hidden point back.
func (ix *Index) unhidePoint(id int, p vec.Point) {
	ix.dropTree()
	copy(ix.ptsFlat[id*ix.dim:], p)
	ix.pdir.set(id, p)
	ix.alive++
}

// hasDuplicate reports whether a live point with exactly p's float64 bit
// patterns is already stored — the byte-exact dup-key discipline of Build, so
// −0.0 and +0.0 are different coordinates. The points of p's grid cell (the
// point directory's box at radius 0) are the only ones compared.
func (ix *Index) hasDuplicate(cc *cellCtx, p vec.Point) bool {
	cc.box, _ = ix.pdir.box(cc.box, p, 0)
	for w, word := range cc.box {
	next:
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			for j, x := range ix.ptsFlat[id*ix.dim : (id+1)*ix.dim] {
				if math.Float64bits(x) != math.Float64bits(p[j]) {
					continue next
				}
			}
			return true
		}
	}
	return false
}

// Delete removes the point with the given id. The cells gaining its
// territory are its Voronoi neighbors; every cell whose approximation
// intersects the deleted cell's approximation is recomputed, a sound
// superset of those neighbors.
//
// Like Insert, Delete stages: the point is hidden from the approximation
// inputs (coordinate row, point directory), all affected cells are recomputed
// into staged fragment sets, and only when every solve has succeeded are the
// stored cells and the directory changed. On error the point is restored
// and the index is unchanged.
func (ix *Index) Delete(id int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.deleteLocked(id, true)
}

// deleteLocked is Delete under an already-held write lock; logIt as in
// insertLocked.
func (ix *Index) deleteLocked(id int, logIt bool) error {
	// Stage the removal: the recomputation LPs must see the post-delete
	// point set, but the committed structures (cells, directory) stay
	// untouched until commit.
	p, ok := ix.hidePoint(id)
	if !ok {
		return fmt.Errorf("nncell: delete of unknown id %d", id)
	}
	// Rolling back the staged removal suffices; nothing committed changed.
	rollback := func() { ix.unhidePoint(id, p) }
	var (
		affected []int
		staged   [][]vec.Rect
	)
	if ix.alive > 0 {
		cc := newCellCtx(ix.dim)
		affected = ix.intersectingCells(cc, nil, outerMBR(ix.cells[id], ix.dim))
		var err error
		staged, err = ix.approximateCells(cc, affected)
		if err != nil {
			rollback()
			return err
		}
	}

	// Durability before commit, as in insertLocked.
	if logIt && ix.wlog != nil {
		if err := ix.wlog.Append(wal.Record{Kind: wal.KindDelete, ID: int64(id)}); err != nil {
			rollback()
			return fmt.Errorf("nncell: logging delete: %w", err)
		}
	}

	// Commit.
	ix.removeFragments(id)
	ix.clearStaleLocked(id)
	ix.commitStaged(affected, staged)
	ix.notifyMutationLocked(affected, nil, id)
	return nil
}

// minParallelRecompute is the affected-set size below which the per-cell LP
// work does not amortize worker startup; smaller batches recompute serially
// on the caller's cellCtx.
const minParallelRecompute = 4

// approximateCells approximates every listed cell against the current point
// set and returns the fragment sets, positionally aligned with ids. The
// committed index is not touched: Build stores the results, the dynamic path
// stages them and swaps them in via commitStaged only after the whole batch
// has succeeded. Large batches run on a worker pool of per-worker cellCtxs
// with a shared fail-fast flag so one failed solve stops the others early.
// Callers hold ix.mu (write side) or, in Build, the only reference.
func (ix *Index) approximateCells(cc *cellCtx, ids []int) ([][]vec.Rect, error) {
	staged := make([][]vec.Rect, len(ids))
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	work := func(wcc *cellCtx) {
		for !failed.Load() {
			k := int(next.Add(1)) - 1
			if k >= len(ids) {
				return
			}
			frags, err := ix.approximateCell(wcc, ids[k])
			if err != nil {
				failed.Store(true)
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("nncell: cell %d: %w", ids[k], err)
				}
				errMu.Unlock()
				return
			}
			staged[k] = frags
		}
	}
	workers := min(ix.opts.Workers, len(ids))
	if workers <= 1 || len(ids) < minParallelRecompute {
		work(cc)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(newCellCtx(ix.dim))
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return staged, nil
}

// commitStaged swaps the staged fragment sets in: pure bookkeeping, no
// solves, cannot fail. An eagerly recomputed cell is fresh by definition,
// so any stale mark is cleared (aborting in-flight repairs of it — the
// epoch check in repairOne sees the cleared mark and drops the solve).
// Callers hold ix.mu (write side).
func (ix *Index) commitStaged(ids []int, staged [][]vec.Rect) {
	for k, aid := range ids {
		ix.removeFragments(aid)
		ix.storeCell(aid, staged[k])
		ix.clearStaleLocked(aid)
		ix.stats.updates.Add(1)
	}
}

// storeCell records the fragments of a cell and enters them into the cell
// directory.
func (ix *Index) storeCell(id int, frags []vec.Rect) {
	ix.dropTree()
	ix.cells[id] = frags
	ix.stats.fragments.Add(uint64(len(frags)))
	ix.dir.add(id, frags)
}

// removeFragments deletes all of a cell's fragments from the cell directory.
func (ix *Index) removeFragments(id int) {
	ix.dropTree()
	ix.stats.fragments.Add(-uint64(len(ix.cells[id])))
	ix.dir.remove(id)
	ix.cells[id] = nil
}

// intersectingCells appends to dst, ascending and distinct, the ids of the
// live cells whose stored approximation intersects one of rects: the cell
// directory's range query, every survivor verified with Rect.Intersects, the
// predicate a rectangle search on the fragments applies (DESIGN.md §18). A
// cell staged for removal still has its bits but no coordinate row, which
// keeps a delete from listing itself; one staged for insertion has no bits
// yet. Callers hold ix.mu.
func (ix *Index) intersectingCells(cc *cellCtx, dst []int, rects ...vec.Rect) []int {
	cc.hit = sized(cc.hit, len(ix.dir.rows[0]))
	clear(cc.hit)
	for _, r := range rects {
		cc.acc = ix.dir.overlapping(cc.acc, r)
		for w, word := range cc.acc {
			for word &^= cc.hit[w]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				if id := w<<6 | b; ix.point(id) != nil && intersectsAny(ix.cells[id], r) {
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

func intersectsAny(frags []vec.Rect, r vec.Rect) bool {
	for _, f := range frags {
		if f.Intersects(r) {
			return true
		}
	}
	return false
}

// outerMBR is the union of a cell's fragment rectangles.
func outerMBR(frags []vec.Rect, d int) vec.Rect {
	out := vec.EmptyRect(d)
	for _, r := range frags {
		out.UnionInPlace(r)
	}
	return out
}
