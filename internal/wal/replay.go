package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/iofault"
)

// ReplayStats describes one recovery pass.
type ReplayStats struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of valid records handed to the apply callback.
	Records uint64
	// TornSegments counts segments that ended in a torn or corrupt record.
	TornSegments int
	// TornBytes is the byte count discarded across all torn tails.
	TornBytes int64
	// Duration is the wall-clock time of the replay.
	Duration time.Duration
}

// Replay streams every record in dir's segments, in segment order, through
// apply. A nil fsys means the real filesystem; a missing directory is an
// empty log (zero stats, nil error).
//
// Torn-tail tolerance: within a segment, the first record whose length
// prefix or CRC32C fails validation ends that segment — the tail is counted
// in the stats and the NEXT segment is still processed. This is sound
// because records are acknowledged in append order within one process
// lifetime: a record that never became durable was never acknowledged, and
// nothing in that segment after it was acknowledged either (the writer
// latches on the first failure and Open never appends to a pre-existing
// segment, so later segments belong to later, recovered lifetimes).
//
// An apply error aborts the replay immediately and is returned; it means
// the log and the base snapshot disagree, and serving a state that diverges
// from the acknowledged history would be worse than failing loudly.
func Replay(fsys iofault.FS, dir string, apply func(Record) error) (ReplayStats, error) {
	start := time.Now()
	var st ReplayStats
	if fsys == nil {
		fsys = iofault.OS{}
	}
	seqs, err := listSegments(fsys, dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			st.Duration = time.Since(start)
			return st, nil
		}
		return st, fmt.Errorf("wal: replay %s: %w", dir, err)
	}
	for _, seq := range seqs {
		name := filepath.Join(dir, segName(seq))
		recs, torn, err := replaySegment(fsys, name, apply)
		st.Segments++
		st.Records += recs
		if torn > 0 {
			st.TornSegments++
			st.TornBytes += torn
		}
		if err != nil {
			st.Duration = time.Since(start)
			return st, err
		}
	}
	st.Duration = time.Since(start)
	return st, nil
}

// replaySegment applies the whole records of one segment, parsed by a Cursor,
// and stops at the first thing that is not one: an incomplete header (a crash
// while the segment was created, so nothing in it was acknowledged), an
// incomplete frame, or a frame the Cursor rejects. The rest is the torn tail.
func replaySegment(fsys iofault.FS, name string, apply func(Record) error) (records uint64, tornBytes int64, err error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: replay %s: %w", name, err)
	}
	data, rerr := io.ReadAll(f)
	f.Close()
	if rerr != nil {
		return 0, 0, fmt.Errorf("wal: replay %s: %w", name, rerr)
	}
	c := Cursor{buf: data}
	for {
		rec, ok, _ := c.Next() // a frame the Cursor rejects is torn like an incomplete one
		if !ok {
			return records, int64(len(data)) - c.Offset(), nil
		}
		if aerr := apply(rec); aerr != nil {
			return records, 0, fmt.Errorf("wal: replay %s: applying record %d: %w", name, records, aerr)
		}
		records++
	}
}
