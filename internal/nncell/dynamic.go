package nncell

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// Dynamic maintenance follows a stage-then-commit protocol so that Insert and
// Delete are atomic with respect to failure: every linear program the
// operation needs is solved before the first committed structure (the cell
// tree, the stored fragment sets, the tombstone state) is touched. The only
// provisional mutations made before the solves are the point-table appends of
// Insert and the point-table removal of Delete — both are required for the
// solves to see the post-operation point set, and both are rolled back
// exactly on error, so CheckInvariants holds on every exit path.

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
	if !ix.bounds.Contains(p) {
		return 0, fmt.Errorf("nncell: point %v outside data space %v", p, ix.bounds)
	}
	if ix.hasDuplicate(p) {
		return 0, fmt.Errorf("nncell: duplicate point %v", p)
	}

	// Stage the point itself: the approximation LPs must see the
	// post-insert point set (the data index drives constraint selection,
	// alive drives the pruning termination check). Everything appended here
	// is rolled back if any solve fails.
	id := len(ix.points)
	ix.points = append(ix.points, p.Clone())
	ix.ptsFlat = append(ix.ptsFlat, p...)
	ix.cells = append(ix.cells, nil)
	ix.alive++
	ix.dataIdx.Insert(vec.PointRect(p), int64(id))
	rollback := func() {
		if !ix.dataIdx.Delete(vec.PointRect(p), int64(id)) {
			panic(fmt.Sprintf("nncell: staged point %d missing from data index during rollback", id))
		}
		ix.points = ix.points[:id]
		ix.ptsFlat = ix.ptsFlat[:id*ix.dim]
		ix.cells = ix.cells[:id]
		ix.alive--
	}

	cc := newCellCtx(ix.dim)
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
	outer := outerMBR(frags, ix.dim)
	affected := ix.intersectingCells(outer, id)
	lazy := ix.lazyForLocked(len(affected))
	var staged [][]vec.Rect
	if !lazy {
		staged, err = ix.recomputeCells(cc, affected)
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
	// remaining work is pure tree/bookkeeping mutation that cannot fail.
	ix.storeCell(id, frags)
	if lazy {
		ix.markStaleLocked(affected)
	} else {
		ix.commitStaged(affected, staged)
	}
	ix.notifyMutationLocked(affected, []vec.Point{p}, id)
	return id, nil
}

// hasDuplicate reports whether a live point with exactly p's float64 bit
// patterns is already stored, via a point query against the data index —
// the same byte-exact dup-key discipline Build uses, at O(log n) page
// touches instead of the previous O(n) scan under the exclusive lock.
func (ix *Index) hasDuplicate(p vec.Point) bool {
	dup := false
	ix.dataIdx.Search(vec.PointRect(p), func(e xtree.Entry) bool {
		q := ix.points[int(e.Data)]
		if q == nil {
			return true
		}
		for j := range p {
			if math.Float64bits(q[j]) != math.Float64bits(p[j]) {
				return true
			}
		}
		dup = true
		return false
	})
	return dup
}

// Delete removes the point with the given id. The cells gaining its
// territory are its Voronoi neighbors; every cell whose approximation
// intersects the deleted cell's approximation is recomputed, a sound
// superset of those neighbors.
//
// Like Insert, Delete stages: the point is hidden from the approximation
// inputs (data index, point table), all affected cells are recomputed into
// staged fragment sets, and only when every solve has succeeded are the
// tree and tombstone mutations committed. On error the point is restored
// and the index is unchanged.
func (ix *Index) Delete(id int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.deleteLocked(id, true)
}

// deleteLocked is Delete under an already-held write lock; logIt as in
// insertLocked.
func (ix *Index) deleteLocked(id int, logIt bool) error {
	if id < 0 || id >= len(ix.points) || ix.points[id] == nil {
		return fmt.Errorf("nncell: delete of unknown id %d", id)
	}
	p := ix.points[id]

	// Stage the removal: the recomputation LPs must see the post-delete
	// point set, but the committed structures (tree, cells, mirror row)
	// stay untouched until commit.
	if !ix.dataIdx.Delete(vec.PointRect(p), int64(id)) {
		return fmt.Errorf("nncell: id %d missing from data index", id)
	}
	ix.points[id] = nil
	ix.alive--

	rollback := func() {
		// Roll back the staged removal; nothing committed changed.
		ix.points[id] = p
		ix.alive++
		ix.dataIdx.Insert(vec.PointRect(p), int64(id))
	}
	var (
		affected []int
		staged   [][]vec.Rect
	)
	if ix.alive > 0 {
		outer := outerMBR(ix.cells[id], ix.dim)
		affected = ix.intersectingCells(outer, id)
		var err error
		staged, err = ix.recomputeCells(newCellCtx(ix.dim), affected)
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
	// Poison the SoA mirror row so that any read path that would resolve the
	// tombstoned id through stale coordinates yields NaN distances (loudly
	// wrong) instead of a silently plausible neighbor. Every query path
	// guards on points[id] != nil or only sees live tree entries, so the row
	// is unreachable; see TestTombstoneCoordsUnreachable for the proof.
	for j := id * ix.dim; j < (id+1)*ix.dim; j++ {
		ix.ptsFlat[j] = math.NaN()
	}
	ix.clearStaleLocked(id)
	ix.commitStaged(affected, staged)
	ix.notifyMutationLocked(affected, nil, id)
	return nil
}

// minParallelRecompute is the affected-set size below which the per-cell LP
// work does not amortize worker startup; smaller batches recompute serially
// on the caller's cellCtx.
const minParallelRecompute = 4

// recomputeCells approximates every listed cell against the current point
// set and returns the staged fragment sets, positionally aligned with ids.
// The committed index is not touched: callers swap the results in via
// commitStaged only after the whole batch has succeeded. Large batches run
// on a worker pool of per-worker cellCtxs — the same pattern Build uses —
// with a shared fail-fast flag so one failed solve stops the others early.
// Callers hold ix.mu (write side).
func (ix *Index) recomputeCells(cc *cellCtx, ids []int) ([][]vec.Rect, error) {
	staged := make([][]vec.Rect, len(ids))
	workers := ix.opts.Workers
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 || len(ids) < minParallelRecompute {
		for k, aid := range ids {
			frags, err := ix.approximateCell(cc, aid)
			if err != nil {
				return nil, fmt.Errorf("nncell: updating cell %d: %w", aid, err)
			}
			staged[k] = frags
		}
		return staged, nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcc := newCellCtx(ix.dim)
			for {
				if failed.Load() {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= len(ids) {
					return
				}
				frags, err := ix.approximateCell(wcc, ids[k])
				if err != nil {
					failed.Store(true)
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("nncell: updating cell %d: %w", ids[k], err)
					}
					errMu.Unlock()
					return
				}
				staged[k] = frags
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return staged, nil
}

// commitStaged swaps the staged fragment sets in: pure tree mutation, no
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

// storeCell records the fragments of a cell and enters them into the tree
// and the cell directory.
func (ix *Index) storeCell(id int, frags []vec.Rect) {
	ix.cells[id] = frags
	for _, r := range frags {
		ix.tree.Insert(r, int64(id))
		ix.stats.fragments.Add(1)
	}
	ix.dir.add(id, frags)
}

// removeFragments deletes all of a cell's fragments from the tree and the
// cell directory.
func (ix *Index) removeFragments(id int) {
	for _, r := range ix.cells[id] {
		if !ix.tree.Delete(r, int64(id)) {
			panic(fmt.Sprintf("nncell: fragment of cell %d missing from tree", id))
		}
		ix.stats.fragments.Add(^uint64(0)) // decrement
	}
	ix.dir.remove(id)
	ix.cells[id] = nil
}

// intersectingCells returns the distinct live cell ids (≠ exclude) whose
// stored approximation intersects r.
func (ix *Index) intersectingCells(r vec.Rect, exclude int) []int {
	seen := make(map[int]bool)
	var ids []int
	ix.tree.Search(r, func(e xtree.Entry) bool {
		id := int(e.Data)
		if id != exclude && ix.points[id] != nil && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// outerMBR is the union of a cell's fragment rectangles.
func outerMBR(frags []vec.Rect, d int) vec.Rect {
	out := vec.EmptyRect(d)
	for _, r := range frags {
		out.UnionInPlace(r)
	}
	return out
}
