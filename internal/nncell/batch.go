package nncell

import (
	"fmt"
	"slices"

	"repro/internal/vec"
	"repro/internal/wal"
)

// Batched maintenance amortizes the dominant cost of the dynamic case. A
// per-point Insert recomputes every affected cell once per point, so a run
// of m nearby inserts re-solves heavily overlapping affected sets m times.
// InsertBatch stages all m points first, approximates the m new cells in
// parallel, computes the UNION of affected cells once, and recomputes (or,
// with LazyRepair, marks stale) each touched cell exactly once — and logs
// the whole batch as a single WAL record, one fsync instead of m.

// InsertBatch adds the points atomically and returns their assigned ids (a
// contiguous run). Either every point commits or none does: all validation
// and every LP solve happens before the WAL append, and the append precedes
// the first committed mutation, so the crash-consistency contract of Insert
// ("logged iff committed iff acknowledged") carries over with the batch as
// the commit unit. An empty batch is a no-op.
func (ix *Index) InsertBatch(ps []vec.Point) ([]int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.insertBatchLocked(ps, true)
}

// insertBatchLocked is InsertBatch under an already-held write lock, and the
// one insert path: Insert passes a batch of one. logIt selects whether the
// mutation is appended to the attached WAL: true for foreground inserts, false
// during replay (the record being applied came FROM the log). The WAL append
// sits between staging and commit: it runs only after every LP has succeeded
// (no log records for mutations that would have failed anyway) and before any
// committed structure changes, so an append failure rolls back to the exact
// pre-call state and the mutation is never acknowledged.
func (ix *Index) insertBatchLocked(ps []vec.Point, logIt bool) ([]int, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	for k, p := range ps {
		if p.Dim() != ix.dim {
			return nil, fmt.Errorf("nncell: batch point %d has dim %d, want %d", k, p.Dim(), ix.dim)
		}
		if !validPoint(p, ix.bounds) {
			return nil, fmt.Errorf("nncell: batch point %d = %v outside data space %v", k, p, ix.bounds)
		}
	}

	// Stage every point. Staging point k before checking point k+1 lets
	// hasDuplicate catch within-batch duplicates and snapshot duplicates
	// with the same index probe. Everything staged is rolled back on error.
	base := ix.cells.len()
	rollback := func() {
		for ix.cells.len() > base {
			ix.unstagePoint()
		}
	}
	cc := newCellCtx(ix.dim)
	ids := make([]int, len(ps))
	for k, p := range ps {
		if ix.hasDuplicate(cc, p) {
			rollback()
			return nil, fmt.Errorf("nncell: duplicate point %v (batch index %d)", p, k)
		}
		ids[k] = ix.stagePoint(p)
	}

	// Approximate all new cells in parallel against the post-batch point
	// set (the new cells are not stored yet, so nothing committed is touched).
	newCells, err := ix.approximateCells(cc, ids)
	if err != nil {
		rollback()
		return nil, err
	}

	// Union of affected cells: every pre-existing cell whose stored
	// approximation intersects any new cell's MBR, each once — the step that
	// makes the batch path amortize, a touched cell handled once instead of
	// once per overlapping insert.
	news := make([]vec.Rect, len(ids))
	for k := range ids {
		news[k] = newCells.rect(k)
	}
	affected := ix.intersectingCells(cc, nil, news...)

	// With LazyRepair the recompute is deferred: the affected cells keep their
	// current MBRs — still supersets, an insert only shrinks cells — and are
	// marked stale for the repair pool at commit (see repair.go).
	lazy := ix.opts.LazyRepair
	var staged cellStore
	if !lazy {
		staged, err = ix.approximateCells(cc, affected)
		if err != nil {
			rollback()
			return nil, err
		}
	}

	// Durability before commit: one record, one fsync, for the whole batch.
	if logIt && ix.wlog != nil {
		rec := wal.Record{Kind: wal.KindInsertBatch, IDs: make([]int64, len(ids))}
		rec.Coords = make([]float64, 0, len(ps)*ix.dim)
		for k, p := range ps {
			rec.IDs[k] = int64(ids[k])
			rec.Coords = append(rec.Coords, p...)
		}
		if err := ix.wlog.Append(rec); err != nil {
			rollback()
			return nil, fmt.Errorf("nncell: logging insert batch: %w", err)
		}
	}

	// Commit: pure bookkeeping, cannot fail.
	for k, id := range ids {
		ix.storeCell(id, newCells.row(k))
	}
	if lazy {
		ix.markStaleLocked(affected)
	} else {
		ix.commitStaged(affected, staged)
	}
	ix.notifyMutationLocked(affected, ps, ids...)
	return ids, nil
}

// DeleteBatch removes the identified points atomically, recomputing each
// affected neighbor cell exactly once for the whole batch. Deletes are
// always eager — a delete grows its neighbors' cells, so serving their old
// MBRs would break Lemma 2's superset precondition (false dismissals).
func (ix *Index) DeleteBatch(ids []int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.deleteBatchLocked(ids, true)
}

// deleteBatchLocked is DeleteBatch under an already-held write lock, and the
// one delete path: Delete passes a batch of one. logIt as in
// insertBatchLocked.
func (ix *Index) deleteBatchLocked(ids []int, logIt bool) error {
	if len(ids) == 0 {
		return nil
	}
	// Stage the removals so the recomputation LPs see the post-batch point
	// set; committed structures stay untouched until every solve succeeds. An
	// id that is dead, was never given out, or came earlier in the batch is not
	// held by the point directory when its turn comes.
	removed := make([]vec.Point, 0, len(ids))
	rollback := func() {
		for k := len(removed) - 1; k >= 0; k-- {
			ix.unhidePoint(ids[k], removed[k])
		}
	}
	for k, id := range ids {
		p, ok := ix.hidePoint(id)
		if !ok {
			rollback()
			if slices.Contains(ids[:k], id) {
				return fmt.Errorf("nncell: id %d appears twice in delete batch (index %d)", id, k)
			}
			return fmt.Errorf("nncell: batch delete of unknown id %d", id)
		}
		removed = append(removed, p)
	}

	// Union of affected survivors: cells intersecting any deleted cell's
	// approximation, recomputed once against the post-batch point set.
	var affected []int
	var staged cellStore
	if ix.alive > 0 {
		deleted := make([]vec.Rect, len(ids))
		for k, id := range ids {
			deleted[k] = ix.cells.rect(id)
		}
		cc := newCellCtx(ix.dim)
		affected = ix.intersectingCells(cc, nil, deleted...)
		var err error
		staged, err = ix.approximateCells(cc, affected)
		if err != nil {
			rollback()
			return err
		}
	}

	// Durability before commit, as in insertBatchLocked.
	if logIt && ix.wlog != nil {
		rec := wal.Record{Kind: wal.KindDeleteBatch, IDs: make([]int64, len(ids))}
		for k, id := range ids {
			rec.IDs[k] = int64(id)
		}
		if err := ix.wlog.Append(rec); err != nil {
			rollback()
			return fmt.Errorf("nncell: logging delete batch: %w", err)
		}
	}

	// Commit.
	for _, id := range ids {
		ix.removeCell(id)
		ix.clearStaleLocked(id)
	}
	ix.commitStaged(affected, staged)
	ix.notifyMutationLocked(affected, nil, ids...)
	return nil
}
