package nncell

import (
	"fmt"
	"math"

	"repro/internal/iofault"
	"repro/internal/vec"
	"repro/internal/wal"
)

// Durability: an index with an attached WAL appends one record per
// committed write (see insertBatchLocked/deleteBatchLocked: the append runs
// after every LP has succeeded and before the commit, so "acknowledged"
// equals "logged"). Recovery is load-snapshot-then-Recover; replay is
// verifiable and idempotent because insert records carry the slot id the
// original execution assigned — see ApplyLogRecord for the case analysis.

// AttachWAL attaches the log every subsequent Insert/Delete is appended to.
// Attach after recovery and before serving mutations; attaching nil
// detaches. The index does not own the log's lifecycle (Close it yourself,
// after the index stops mutating).
func (ix *Index) AttachWAL(l *wal.Log) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.wlog = l
}

// WAL returns the attached log, or nil.
func (ix *Index) WAL() *wal.Log {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.wlog
}

// WALStats returns the attached log's counters (zero value when detached).
func (ix *Index) WALStats() wal.Stats {
	if l := ix.WAL(); l != nil {
		return l.Stats()
	}
	return wal.Stats{}
}

// RotateWAL seals the active segment and returns the compaction cut for a
// snapshot that STARTS after this call (see CompactWAL). With no WAL
// attached it returns (0, nil): the snapshot simply has no log to compact.
func (ix *Index) RotateWAL() (uint64, error) {
	l := ix.WAL()
	if l == nil {
		return 0, nil
	}
	return l.Rotate()
}

// CompactWAL discards log segments made redundant by a completed snapshot.
// The protocol is: cut := RotateWAL() → write snapshot (Save) → CompactWAL
// (cut). Mutations racing the snapshot land in segments ≥ cut AND (when
// they won the race into the snapshot's read lock) in the snapshot itself;
// replay re-encounters them as stale duplicates and skips them, so the
// overlap is harmless and no coordination with writers is needed.
func (ix *Index) CompactWAL(cut uint64) error {
	l := ix.WAL()
	if l == nil || cut == 0 {
		return nil
	}
	return l.TruncateBefore(cut)
}

// RecoveryStats extends the log-level replay counters with what the index
// did with the records.
type RecoveryStats struct {
	wal.ReplayStats
	// Applied counts records that mutated the index; Stale counts records
	// skipped because the snapshot already contained their effect.
	Applied, Stale uint64
}

// Recover replays the WAL directory into the index (which should hold the
// base snapshot's state). Call before AttachWAL/serving. A nil fsys means
// the real filesystem; a missing directory is an empty log. An error means
// the log contradicts the snapshot (wrong directory, gap in the record
// sequence) — the index must not serve, because its state provably
// diverges from the acknowledged history.
func (ix *Index) Recover(fsys iofault.FS, dir string) (RecoveryStats, error) {
	var rs RecoveryStats
	st, err := wal.Replay(fsys, dir, func(rec wal.Record) error {
		applied, err := ix.ApplyLogRecord(rec)
		if err != nil {
			return err
		}
		if applied {
			rs.Applied++
		} else {
			rs.Stale++
		}
		return nil
	})
	rs.ReplayStats = st
	return rs, err
}

// ApplyLogRecord applies one replayed record, reporting whether it mutated
// the index (false: a stale duplicate of state the snapshot already holds).
// The ids carried by each record make the replay verifiable; applyInsertBatch
// and applyDeleteBatch hold the case analysis. The single kinds — what logs
// written before a write became a batch of one hold — are batches of one.
func (ix *Index) ApplyLogRecord(rec wal.Record) (bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch rec.Kind {
	case wal.KindInsert:
		return ix.applyInsertBatch(wal.Record{IDs: []int64{rec.ID}, Coords: rec.Point})
	case wal.KindDelete:
		return ix.applyDeleteBatch(wal.Record{IDs: []int64{rec.ID}})
	case wal.KindInsertBatch:
		return ix.applyInsertBatch(rec)
	case wal.KindDeleteBatch:
		return ix.applyDeleteBatch(rec)
	default:
		return false, fmt.Errorf("nncell: replayed record of unknown kind %d", rec.Kind)
	}
}

// applyInsertBatch replays an insert record: a run of slot ids with their
// coordinates. A batch commits all-or-nothing and slot ids are append-only, so
// a consistent snapshot covers either the whole batch or none of it. Hence the
// legal shapes are exactly two:
//
//   - the run starts exactly at len(points) and is contiguous: apply the whole
//     batch; the re-execution provably assigns exactly those ids.
//   - every id is already inside the table: the snapshot covers the record.
//     A slot holding bit-identical coordinates, or a tombstone (the point was
//     inserted and later deleted, both before the snapshot), is a stale
//     duplicate; a live slot with DIFFERENT bits means this log does not
//     belong to this snapshot — error.
//
// Anything else — a run that straddles the table's end, or starts beyond it
// (records are missing below it, so the acknowledged history cannot be
// reconstructed) — is an error.
func (ix *Index) applyInsertBatch(rec wal.Record) (bool, error) {
	dim := rec.BatchDim()
	if dim != ix.dim {
		return false, fmt.Errorf("nncell: replayed %d-dim insert batch into %d-dim index", dim, ix.dim)
	}
	first := int(rec.IDs[0])
	switch {
	case first == ix.cells.len():
		ps := make([]vec.Point, len(rec.IDs))
		for k := range rec.IDs {
			if int(rec.IDs[k]) != first+k {
				return false, fmt.Errorf("nncell: replayed insert batch ids are not contiguous at slot %d (corrupt record)", k)
			}
			ps[k] = vec.Point(rec.Coords[k*dim : (k+1)*dim])
		}
		if _, err := ix.insertBatchLocked(ps, false); err != nil {
			return false, fmt.Errorf("nncell: replaying insert batch at %d: %w", first, err)
		}
		return true, nil
	case first < ix.cells.len():
		for k, id64 := range rec.IDs {
			id := int(id64)
			if id >= ix.cells.len() {
				return false, fmt.Errorf("nncell: replayed insert batch straddles the point table at id %d (log is missing records)", id)
			}
			q := ix.point(id)
			if q == nil {
				continue // inserted and deleted before the snapshot
			}
			for j := range q {
				if math.Float64bits(q[j]) != math.Float64bits(rec.Coords[k*dim+j]) {
					return false, fmt.Errorf("nncell: replayed insert batch slot %d does not match the snapshot's point (wrong log for this snapshot?)", id)
				}
			}
		}
		return false, nil // stale duplicate of the whole batch
	default:
		return false, fmt.Errorf("nncell: replayed insert batch at %d beyond point table of %d (log is missing records)", first, ix.cells.len())
	}
}

// applyDeleteBatch replays a delete record. An id beyond the table is a gap —
// error; ids already tombstoned in the snapshot are stale and skipped; the
// still-live remainder is deleted as one batch (the snapshot may postdate the
// batch's commit, covering all of it, or predate it, covering none — either
// way every id must at least exist in the table).
func (ix *Index) applyDeleteBatch(rec wal.Record) (bool, error) {
	var live []int
	for _, id64 := range rec.IDs {
		id := int(id64)
		if id >= ix.cells.len() {
			return false, fmt.Errorf("nncell: replayed delete %d beyond point table of %d (log is missing records)", id, ix.cells.len())
		}
		if ix.point(id) != nil {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return false, nil // whole batch already tombstoned in the snapshot
	}
	if err := ix.deleteBatchLocked(live, false); err != nil {
		return false, fmt.Errorf("nncell: replaying delete batch: %w", err)
	}
	return true, nil
}
