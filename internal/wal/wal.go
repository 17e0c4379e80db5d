// Package wal implements the write-ahead log that makes the dynamic
// NN-cell index crash-safe. Rebuilding the index is the expensive part of
// the system (2·d linear programs per affected cell on every mutation), so
// the durability design treats the periodic snapshot as the base artifact
// and the log as the cheap incremental delta: every committed Insert/Delete
// appends one length-prefixed, CRC32C-checksummed record, and recovery is
// "load snapshot, replay log" — no LP is ever re-run for state the snapshot
// already holds.
//
// The log is a sequence of append-only segments (wal-<seq>.log). Each Open
// starts a fresh segment, so a torn tail left by a crash is never appended
// to; replay processes segments in sequence order and, within a segment,
// stops at the first record that fails its length or checksum validation —
// a torn or truncated tail ends that segment cleanly without poisoning the
// segments that follow it.
//
// Durability is governed by the fsync policy: SyncAlways fsyncs before
// Append returns (an acknowledged write survives any crash), SyncInterval
// fsyncs on a background cadence (bounded loss window), SyncNever leaves
// flushing to the OS (no durability guarantee; fastest). Any write or fsync
// failure latches the log into a failed state — after a failed fsync the
// kernel may have dropped the dirty pages, so pretending later appends are
// durable would be a lie; the index layer surfaces the sticky error and
// refuses further mutations instead.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
)

// Policy selects when appends are made durable.
type Policy int

const (
	// SyncAlways fsyncs the segment before Append returns. Acknowledged
	// writes survive any crash; this is the default.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a background cadence (Options.Interval): a
	// crash loses at most one interval of acknowledged writes.
	SyncInterval
	// SyncNever never fsyncs; the OS flushes when it pleases. A crash can
	// lose (or tear, out of order) anything not yet written back.
	SyncNever
)

// String returns the policy's CLI spelling.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses the CLI spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (always|interval|never)", s)
	}
}

// Options configure a log. The zero value means: real filesystem,
// SyncAlways, 64 MiB segments.
type Options struct {
	// FS is the filesystem the log lives on. Default iofault.OS{}; crash
	// tests inject an iofault.Mem.
	FS iofault.FS
	// Policy is the fsync policy. Default SyncAlways.
	Policy Policy
	// Interval is the background fsync cadence for SyncInterval.
	// Default 100ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default 64 MiB.
	SegmentBytes int64
}

func (o *Options) normalize() {
	if o.FS == nil {
		o.FS = iofault.OS{}
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// Stats is a snapshot of the log's counters.
type Stats struct {
	// Appends counts records appended; AppendedBytes the framed bytes.
	Appends, AppendedBytes uint64
	// Syncs counts successful fsyncs; SyncFailures failed ones.
	Syncs, SyncFailures uint64
	// Rotations counts segment rotations, Compactions TruncateBefore calls.
	Rotations, Compactions uint64
	// ActiveSegment is the sequence number of the segment being appended to.
	ActiveSegment uint64
	// Failed reports whether the log has latched its sticky failure state.
	Failed bool
}

// ErrUnavailable is wrapped into every error returned after the log latches
// its failure state; errors.Is(err, ErrUnavailable) identifies "durability
// is gone" as opposed to a per-record problem.
var ErrUnavailable = errors.New("wal: log unavailable after earlier failure")

const (
	segMagic  = "NNWALv1\n" // 8 bytes, starts every segment
	segPrefix = "wal-"
	segSuffix = ".log"
	// frameBytes is the per-record framing: payload length + CRC32C.
	frameBytes = 8
	// MaxRecordBytes bounds one record's payload; replay treats larger
	// declared lengths as corruption.
	MaxRecordBytes = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only segmented record log. All methods are safe for
// concurrent use; in practice the index serializes Append under its write
// lock, and the background interval syncer is the only other writer.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       iofault.File
	seq     uint64 // active segment sequence number
	size    int64  // bytes written to the active segment
	synced  int64  // durable prefix of the active segment (last successful Sync)
	recs    uint64 // records appended this lifetime
	durRecs uint64 // records appended AND made durable this lifetime
	dirty   bool   // unsynced appends outstanding
	failed  error  // sticky failure, wraps ErrUnavailable
	buf     []byte // frame scratch, reused across appends

	stopc chan struct{} // closes to stop the interval syncer
	done  chan struct{}

	stats struct {
		appends, bytes, syncs, syncFailures, rotations, compactions atomic.Uint64
	}
}

func segName(seq uint64) string { return fmt.Sprintf("%s%09d%s", segPrefix, seq, segSuffix) }

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+9+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(segPrefix) : len(segPrefix)+9] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// listSegments returns the segment sequence numbers in dir, ascending.
func listSegments(fsys iofault.FS, dir string) ([]uint64, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := parseSegName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open creates (if needed) the log directory and starts a fresh active
// segment after any existing ones. It never appends to a pre-existing
// segment: the previous process may have died mid-record, and writing past
// a torn tail would hide every subsequent record from replay. Callers
// replay existing segments (Replay) BEFORE opening the log for appends —
// Open only arranges where new records go.
func Open(dir string, opts Options) (*Log, error) {
	opts.normalize()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	next := uint64(1)
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	l := &Log{dir: dir, opts: opts, seq: next - 1}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.stopc = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// openSegmentLocked advances to the next sequence number and creates the
// segment durably: the header is written and fsynced, and the directory is
// fsynced so the file itself survives a crash. Callers hold l.mu (or own
// the log exclusively during Open).
func (l *Log) openSegmentLocked() error {
	l.seq++
	name := filepath.Join(l.dir, segName(l.seq))
	f, err := l.opts.FS.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %s header: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %s header sync: %w", name, err)
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment %s dir sync: %w", name, err)
	}
	l.f = f
	l.size = int64(len(segMagic))
	l.synced = l.size // the header was just fsynced
	l.dirty = false
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// ActiveSegmentPath returns the path of the segment currently appended to.
func (l *Log) ActiveSegmentPath() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return filepath.Join(l.dir, segName(l.seq))
}

// failLocked latches the sticky failure state. The underlying cause stays on
// the error chain (both ErrUnavailable and the cause answer errors.Is), so
// retry logic and operators can tell disk-full from an injected fault from a
// short write without string matching.
func (l *Log) failLocked(err error) {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
}

// Append frames and writes one record, then applies the fsync policy. When
// it returns nil under SyncAlways the record is durable; under the other
// policies it is in the OS's hands. Any write or fsync error latches the
// log: the record must be treated as not acknowledged (the index rolls the
// mutation back), and all later Appends fail with ErrUnavailable.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	b := append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	b, err := appendPayload(b, rec)
	if err != nil {
		return err
	}
	l.buf = b
	payload := b[frameBytes:]
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("wal: record payload of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	le := binary.LittleEndian
	le.PutUint32(b[0:4], uint32(len(payload)))
	le.PutUint32(b[4:8], crc32.Checksum(payload, crcTable))

	n, werr := l.f.Write(b)
	l.size += int64(n)
	if werr != nil || n != len(b) {
		if werr == nil {
			werr = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(b))
		}
		// The segment now ends in a torn record; replay will stop there.
		// Latch: appending anything after the tear would hide it forever.
		l.failLocked(werr)
		return l.failed
	}
	l.dirty = true
	l.recs++
	l.stats.appends.Add(1)
	l.stats.bytes.Add(uint64(len(b)))
	if l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if l.size >= l.opts.SegmentBytes {
		// The record above is already written (and durable under
		// SyncAlways); a rotation failure latches the log for FUTURE
		// appends but must not un-acknowledge this one.
		if err := l.rotateLocked(); err != nil {
			l.failLocked(err)
		}
	}
	return nil
}

// syncLocked fsyncs outstanding appends. Callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.stats.syncFailures.Add(1)
		l.failLocked(err)
		return l.failed
	}
	l.dirty = false
	l.synced = l.size
	l.durRecs = l.recs
	l.stats.syncs.Add(1)
	return nil
}

// Sync forces outstanding appends to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// rotateLocked seals the active segment (fsync + close) and opens the next
// one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment %d: %w", l.seq, err)
	}
	if err := l.openSegmentLocked(); err != nil {
		return err
	}
	l.stats.rotations.Add(1)
	return nil
}

// Rotate seals the active segment and starts a new one, returning the new
// active sequence number as the compaction cut: every record appended from
// now on lands in segment ≥ cut, so after a snapshot that was STARTED after
// this call, TruncateBefore(cut) discards only records the snapshot
// contains. (Records appended between Rotate and the snapshot's read lock
// land both in a post-cut segment and in the snapshot; replay skips them as
// stale duplicates, so the overlap is harmless — see the idempotent-replay
// contract in internal/nncell.)
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	if err := l.rotateLocked(); err != nil {
		l.failLocked(err)
		return 0, l.failed
	}
	return l.seq, nil
}

// TruncateBefore removes all sealed segments with sequence numbers below
// cut, then fsyncs the directory. The active segment is never removed.
func (l *Log) TruncateBefore(cut uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	seqs, err := listSegments(l.opts.FS, l.dir)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	removed := false
	for _, seq := range seqs {
		if seq >= cut || seq == l.seq {
			continue
		}
		if err := l.opts.FS.Remove(filepath.Join(l.dir, segName(seq))); err != nil {
			return fmt.Errorf("wal: truncate segment %d: %w", seq, err)
		}
		removed = true
	}
	if removed {
		if err := l.opts.FS.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: truncate dir sync: %w", err)
		}
	}
	l.stats.compactions.Add(1)
	return nil
}

// syncLoop is the SyncInterval background flusher. Sync errors latch the
// log exactly as a foreground failure would; the next Append surfaces them.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// Close flushes outstanding appends and closes the active segment. A failed
// log closes its file but returns the latched error.
func (l *Log) Close() error {
	if l.stopc != nil {
		close(l.stopc)
		<-l.done
		l.stopc = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	syncErr := l.syncLocked()
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close: %w", closeErr)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	seq := l.seq
	failed := l.failed != nil
	l.mu.Unlock()
	return Stats{
		Appends:       l.stats.appends.Load(),
		AppendedBytes: l.stats.bytes.Load(),
		Syncs:         l.stats.syncs.Load(),
		SyncFailures:  l.stats.syncFailures.Load(),
		Rotations:     l.stats.rotations.Load(),
		Compactions:   l.stats.compactions.Load(),
		ActiveSegment: seq,
		Failed:        failed,
	}
}
