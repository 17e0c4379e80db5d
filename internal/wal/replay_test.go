package wal

import (
	"fmt"
	"testing"

	"repro/internal/iofault"
)

// TestReplayTornAccountingEveryCut pins Replay's accounting against the frame
// offsets of a three-segment log: the last segment cut at every byte offset,
// and, separately, one byte flipped in the header and in each frame of the
// middle segment. In every case the replayed records are the whole frames
// before the damage, and the torn bytes are the damaged segment's length minus
// the end of its last whole frame (minus 0 while the header is incomplete).
func TestReplayTornAccountingEveryCut(t *testing.T) {
	mem := iofault.NewMem()
	l, err := Open("wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(18, 3)
	kinds := map[Kind]bool{}
	var segs []string
	var ends [][]int // per segment: the header end, then each frame's end
	for i, r := range want {
		if i%6 == 0 {
			if i > 0 {
				if _, err := l.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
			segs = append(segs, l.ActiveSegmentPath())
			ends = append(ends, []int{len(segMagic)})
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		payload, _ := appendPayload(nil, r)
		e := ends[len(ends)-1]
		ends[len(ends)-1] = append(e, e[len(e)-1]+frameBytes+len(payload))
		kinds[r.Kind] = true
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{KindInsert, KindDelete, KindInsertBatch, KindDeleteBatch} {
		if !kinds[k] {
			t.Fatalf("test log holds no record of kind %d", k)
		}
	}
	images := make([][]byte, len(segs))
	for s, name := range segs {
		data, ok := mem.Bytes(name)
		if !ok || len(data) != ends[s][len(ends[s])-1] {
			t.Fatalf("segment %s: %d bytes, frame offsets say %d", name, len(data), ends[s][len(ends[s])-1])
		}
		images[s] = data
	}

	// check replays the log with segment s replaced by img, whose first
	// `whole` frames are intact and whose whole frames end at byte `kept`.
	check := func(name string, s int, img []byte, whole, kept int) {
		t.Helper()
		fsys := iofault.NewMem()
		for i, seg := range segs {
			data := images[i]
			if i == s {
				data = img
			}
			fsys.SetFile(seg, data)
		}
		wantRecs := append(append([]Record(nil), want[:6*s+whole]...), want[6*(s+1):]...)
		got, st := collectReplay(t, fsys, "wal")
		torn := int64(len(img) - kept)
		wantTorn := 0
		if torn > 0 {
			wantTorn = 1
		}
		if st.Segments != len(segs) || st.Records != uint64(len(wantRecs)) || st.TornSegments != wantTorn || st.TornBytes != torn {
			t.Fatalf("%s: stats %+v, want %d segments, %d records, %d torn segments, %d torn bytes",
				name, st, len(segs), len(wantRecs), wantTorn, torn)
		}
		if len(got) != len(wantRecs) {
			t.Fatalf("%s: applied %d records, want %d", name, len(got), len(wantRecs))
		}
		for i := range got {
			if !recordsEqual(got[i], wantRecs[i]) {
				t.Fatalf("%s: applied record %d is %+v, want %+v", name, i, got[i], wantRecs[i])
			}
		}
	}

	last := len(segs) - 1
	for cut := 0; cut <= len(images[last]); cut++ {
		whole, kept := 0, 0
		for k, e := range ends[last] {
			if e <= cut {
				whole, kept = k, e
			}
		}
		check(fmt.Sprintf("cut at %d", cut), last, images[last][:cut], whole, kept)
	}

	mid := 1
	for k, start := range append([]int{0}, ends[mid][:len(ends[mid])-1]...) {
		img := append([]byte(nil), images[mid]...)
		end := ends[mid][k]
		img[start+(7*k)%(end-start)] ^= 0x5A
		whole, kept := max(k-1, 0), start
		check(fmt.Sprintf("flip in frame %d", k), mid, img, whole, kept)
	}
}
