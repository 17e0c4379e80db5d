package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/wal"
)

// Durability for a sharded index is strictly per shard: each shard keeps
// its own log of its own local ids under a shard-numbered subdirectory, so
// a routed mutation appends to exactly one log under exactly that shard's
// write lock — the WAL adds no cross-shard serialization, preserving the
// parallelism the partition exists for. Replay likewise recovers shards
// independently; no cross-shard ordering is needed because routing is
// deterministic (a point's whole history lives in one shard's log).

// WALDir returns shard i's log directory under the sharded WAL root.
func WALDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", i))
}

// OpenWALs opens one log per shard under root and attaches them. On any
// failure every already-opened log is closed and nothing stays attached.
func (s *Sharded) OpenWALs(root string, opts wal.Options) error {
	logs := make([]*wal.Log, len(s.shards))
	for i := range s.shards {
		l, err := wal.Open(WALDir(root, i), opts)
		if err != nil {
			for _, open := range logs[:i] {
				open.Close()
			}
			return fmt.Errorf("shard: opening wal for shard %d: %w", i, err)
		}
		logs[i] = l
	}
	for i, ix := range s.shards {
		ix.AttachWAL(logs[i])
	}
	return nil
}

// CloseWALs flushes, closes and detaches every shard's log. The first
// error is returned; all logs are closed regardless.
func (s *Sharded) CloseWALs() error {
	var first error
	for _, ix := range s.shards {
		l := ix.WAL()
		if l == nil {
			continue
		}
		ix.AttachWAL(nil)
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close quiesces the sharded index for shutdown: it drains every shard's
// lazy-repair pool (RepairWait blocks until no repair goroutine is queued or
// in flight, so none can outlive the call and touch a closed log), then
// flushes, closes and detaches the per-shard WALs. Safe to call with repairs
// pending — that is the point — and with no WALs attached (then it only
// drains). Callers must have stopped issuing mutations first.
func (s *Sharded) Close() error {
	s.RepairWait()
	return s.CloseWALs()
}

// Recover replays each shard's log directory under root into that shard.
// Stats are summed across shards; per-shard divergence errors abort with
// the shard number attached.
//
// Segment files (wal-*.log, see package wal) at the root itself are the layout
// of the single-index server `nncell serve` used to run without -shards. No
// shard directory replays them, so recovering around them would drop
// acknowledged writes without a word: Recover refuses and names them.
func (s *Sharded) Recover(fsys iofault.FS, root string) (nncell.RecoveryStats, error) {
	var total nncell.RecoveryStats
	if fsys == nil {
		fsys = iofault.OS{}
	}
	names, err := fsys.ReadDir(root)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return total, fmt.Errorf("shard: recovering: %w", err)
	}
	var stray []string
	for _, name := range names {
		if ok, _ := filepath.Match("wal-*.log", name); ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		return total, fmt.Errorf("shard: %s holds log segments at its root (%s): a single-index server's layout, which no shard replays (a one-shard index replays them from %s)",
			root, strings.Join(stray, ", "), WALDir(root, 0))
	}
	for i, ix := range s.shards {
		rs, err := ix.Recover(fsys, WALDir(root, i))
		total.Segments += rs.Segments
		total.Records += rs.Records
		total.TornSegments += rs.TornSegments
		total.TornBytes += rs.TornBytes
		total.Duration += rs.Duration
		total.Applied += rs.Applied
		total.Stale += rs.Stale
		if err != nil {
			return total, fmt.Errorf("shard: recovering shard %d: %w", i, err)
		}
	}
	return total, nil
}

// RotateWAL seals every shard's active segment and returns the per-shard
// compaction cuts (0 for shards without a log), for use with CompactWAL
// around a snapshot exactly as in the single-index protocol.
func (s *Sharded) RotateWAL() ([]uint64, error) {
	cuts := make([]uint64, len(s.shards))
	for i, ix := range s.shards {
		cut, err := ix.RotateWAL()
		if err != nil {
			return nil, fmt.Errorf("shard: rotating wal of shard %d: %w", i, err)
		}
		cuts[i] = cut
	}
	return cuts, nil
}

// CompactWAL applies the per-shard cuts returned by the RotateWAL call
// that preceded the snapshot.
func (s *Sharded) CompactWAL(cuts []uint64) error {
	if len(cuts) != len(s.shards) {
		return errors.New("shard: compaction cuts do not match shard count")
	}
	for i, ix := range s.shards {
		if err := ix.CompactWAL(cuts[i]); err != nil {
			return fmt.Errorf("shard: compacting wal of shard %d: %w", i, err)
		}
	}
	return nil
}

// WALStats sums the per-shard log counters. Failed is true if ANY shard's
// log has latched its failure state (that shard refuses mutations, so the
// sharded index as a whole is degraded).
func (s *Sharded) WALStats() wal.Stats {
	var out wal.Stats
	for _, ix := range s.shards {
		st := ix.WALStats()
		out.Appends += st.Appends
		out.AppendedBytes += st.AppendedBytes
		out.Syncs += st.Syncs
		out.SyncFailures += st.SyncFailures
		out.Rotations += st.Rotations
		out.Compactions += st.Compactions
		if st.ActiveSegment > out.ActiveSegment {
			out.ActiveSegment = st.ActiveSegment
		}
		out.Failed = out.Failed || st.Failed
	}
	return out
}
