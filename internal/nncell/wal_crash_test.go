package nncell

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/iofault"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/wal"
)

// walOp is one step of the mutation history the crash matrix replays.
type walOp struct {
	del bool
	id  int       // delete target
	p   vec.Point // insert payload
}

// applyOps drives the first n ops of the history into ix through the public
// API, building the oracle state for a crash that preserved exactly n
// acknowledged mutations.
func applyOps(t *testing.T, ix *Index, ops []walOp, n int) {
	t.Helper()
	for _, op := range ops[:n] {
		if op.del {
			if err := ix.Delete(op.id); err != nil {
				t.Fatalf("oracle delete %d: %v", op.id, err)
			}
		} else if _, err := ix.Insert(op.p); err != nil {
			t.Fatalf("oracle insert %v: %v", op.p, err)
		}
	}
}

func assertSameState(t *testing.T, got, want *Index, seed int64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	gotIDs, wantIDs := got.IDs(), want.IDs()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("IDs = %v, want %v", gotIDs, wantIDs)
	}
	for k, id := range wantIDs {
		if gotIDs[k] != id {
			t.Fatalf("IDs = %v, want %v", gotIDs, wantIDs)
		}
		gp, _ := got.Point(id)
		wp, _ := want.Point(id)
		for j := range wp {
			if math.Float64bits(gp[j]) != math.Float64bits(wp[j]) {
				t.Fatalf("point %d: %v vs %v", id, gp, wp)
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("recovered index invariants: %v", err)
	}
	// The recovered index must answer exactly (Lemma 2 still holds).
	live := make([]vec.Point, 0, len(wantIDs))
	for _, id := range wantIDs {
		p, _ := want.Point(id)
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	oracle := scan.New(live, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 10; trial++ {
		q := randQuery(rng, got.Dim())
		_, wantD2 := oracle.Nearest(q)
		nb, err := got.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(nb.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: NN dist2 %v, oracle %v", trial, nb.Dist2, wantD2)
		}
	}
}

// TestWALCrashMatrix is the end-to-end crash matrix: a snapshot plus a
// logged mutation history, crashed at EVERY byte offset of the log, must
// recover to exactly the acknowledged prefix of the history — same live
// ids, bit-identical points, invariants intact, exact query answers.
func TestWALCrashMatrix(t *testing.T) {
	const d = 2
	base := uniquePoints(t, dataset.NameUniform, 301, 8, d)
	extra := uniquePoints(t, dataset.NameClustered, 302, 6, d)
	ix := mustBuild(t, base, Options{Algorithm: Correct})
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}

	ops := []walOp{
		{p: extra[0]},
		{p: extra[1]},
		{del: true, id: 3},
		{p: extra[2]},
		{del: true, id: len(base)}, // delete a point inserted after the snapshot
		{p: extra[3]},
		{del: true, id: 0},
		{p: extra[4]},
	}

	// Run the history against a WAL on the fault filesystem.
	m := iofault.NewMem()
	l, err := wal.Open("wal", wal.Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	live, err := Load(bytes.NewReader(snap.Bytes()), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	live.AttachWAL(l)
	seg := l.ActiveSegmentPath()
	applyOps(t, live, ops, len(ops))
	// Frame boundaries: bytes at which exactly k ops are fully durable.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, ok := m.Bytes(seg)
	if !ok {
		t.Fatal("active segment missing")
	}

	// Oracle per prefix length k: snapshot + first k ops via the public API.
	oracles := make([]*Index, len(ops)+1)
	for k := range oracles {
		o, err := Load(bytes.NewReader(snap.Bytes()), newTestPager())
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, o, ops, k)
		oracles[k] = o
	}

	for cut := 0; cut <= len(full); cut++ {
		img := iofault.NewMem()
		img.SetFile(seg, full[:cut])
		rec, err := Load(bytes.NewReader(snap.Bytes()), newTestPager())
		if err != nil {
			t.Fatal(err)
		}
		rs, rerr := rec.Recover(img, "wal")
		if rerr != nil {
			t.Fatalf("cut=%d: recover: %v", cut, rerr)
		}
		k := int(rs.Applied)
		if k > len(ops) {
			t.Fatalf("cut=%d: applied %d records from %d ops", cut, k, len(ops))
		}
		if rs.Stale != 0 {
			t.Fatalf("cut=%d: %d stale records in a snapshot-then-log run", cut, rs.Stale)
		}
		assertSameState(t, rec, oracles[k], int64(400+cut))
	}
	// The full log must recover the complete history.
	img := iofault.NewMem()
	img.SetFile(seg, full)
	rec, _ := Load(bytes.NewReader(snap.Bytes()), newTestPager())
	rs, err := rec.Recover(img, "wal")
	if err != nil || rs.Applied != uint64(len(ops)) {
		t.Fatalf("full recovery applied %d of %d ops, err %v", rs.Applied, len(ops), err)
	}
	assertSameState(t, rec, live, 999)
}

// TestWALAppendFailureRollsBack: a mutation whose log append fails must not
// be acknowledged and must leave the index untouched; the log failure is
// sticky so later mutations are refused too.
func TestWALAppendFailureRollsBack(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, dataset.NameUniform, 303, 10, d)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	m := iofault.NewMem()
	l, err := wal.Open("wal", wal.Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(l)

	p := vec.Point{0.123, 0.456, 0.789}
	if _, err := ix.Insert(p); err != nil {
		t.Fatal(err)
	}
	wantLen, wantDir := ix.Len(), pointDirSnapshot(ix)

	m.FailWritesAfter(l.ActiveSegmentPath(), 3, iofault.ErrNoSpace)
	if _, err := ix.Insert(vec.Point{0.9, 0.8, 0.7}); err == nil {
		t.Fatal("insert acknowledged despite failed log append")
	}
	if ix.Len() != wantLen {
		t.Fatalf("Len = %d after rolled-back insert, want %d", ix.Len(), wantLen)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rollback: %v", err)
	}
	// Sticky: deletes are refused too, and also roll back.
	if err := ix.Delete(0); !errors.Is(err, wal.ErrUnavailable) {
		t.Fatalf("delete after latch = %v, want ErrUnavailable", err)
	}
	if _, ok := ix.Point(0); !ok {
		t.Fatal("rolled-back delete removed the point")
	}
	if ix.Len() != wantLen {
		t.Fatalf("Len = %d after refused delete, want %d", ix.Len(), wantLen)
	}
	assertPointDirIs(t, ix, wantDir)
	// The durable prefix (the one acknowledged insert) still recovers.
	l.Close()
	rec := mustBuild(t, pts, Options{Algorithm: Sphere})
	rs, err := rec.Recover(m, "wal")
	if err != nil || rs.Applied != 1 {
		t.Fatalf("recovery after torn append: applied %d, err %v", rs.Applied, err)
	}
	if _, ok := rec.Point(len(pts)); !ok {
		t.Fatal("acknowledged insert lost")
	}
}

// TestReplayStaleRecordsSkipped: records whose effect the snapshot already
// contains (the Rotate→Save overlap window) replay as stale no-ops.
func TestReplayStaleRecordsSkipped(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, dataset.NameUniform, 304, 8, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	m := iofault.NewMem()
	l, err := wal.Open("wal", wal.Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(l)
	if _, err := ix.Insert(vec.Point{0.111, 0.222}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(2); err != nil {
		t.Fatal(err)
	}
	// Snapshot taken AFTER the mutations: the log now only holds stale
	// records relative to it.
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	l.Close()

	rec, err := Load(bytes.NewReader(snap.Bytes()), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover(m, "wal")
	if err != nil {
		t.Fatalf("stale replay errored: %v", err)
	}
	if rs.Applied != 0 || rs.Stale != 2 {
		t.Fatalf("applied %d / stale %d, want 0 / 2", rs.Applied, rs.Stale)
	}
	assertSameState(t, rec, ix, 555)
}

// TestRecoverRejectsWrongLog: replaying a log over a snapshot it does not
// belong to must fail loudly, not silently merge histories.
func TestRecoverRejectsWrongLog(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, dataset.NameUniform, 305, 6, d)
	ixA := mustBuild(t, pts, Options{Algorithm: Correct})
	var snapBase bytes.Buffer
	if err := ixA.Save(&snapBase); err != nil {
		t.Fatal(err)
	}

	// Log L: insert X at slot len(pts), against the base snapshot.
	m := iofault.NewMem()
	l, _ := wal.Open("wal", wal.Options{FS: m})
	ixA.AttachWAL(l)
	if _, err := ixA.Insert(vec.Point{0.31, 0.62}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Snapshot B: the base plus a DIFFERENT point committed at the same slot.
	ixB, err := Load(bytes.NewReader(snapBase.Bytes()), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ixB.Insert(vec.Point{0.77, 0.88}); err != nil {
		t.Fatal(err)
	}
	var snapB bytes.Buffer
	if err := ixB.Save(&snapB); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(bytes.NewReader(snapB.Bytes()), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Recover(m, "wal"); err == nil {
		t.Fatal("recovery accepted a log from a different history")
	}
}

// TestRecoverRejectsGap: a record referring past the point table means
// records are missing — recovery must refuse to serve the divergent state.
func TestRecoverRejectsGap(t *testing.T) {
	m := iofault.NewMem()
	l, _ := wal.Open("wal", wal.Options{FS: m})
	if err := l.Append(wal.Record{Kind: wal.KindInsert, ID: 5, Point: []float64{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Kind: wal.KindDelete, ID: 9}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	pts := uniquePoints(t, dataset.NameUniform, 306, 3, 2)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	if _, err := ix.Recover(m, "wal"); err == nil {
		t.Fatal("recovery accepted a log with missing records")
	}
}

// TestReplaySingleKindRecords: no foreground write logs KindInsert or
// KindDelete any more, but logs written before a write became a batch of one
// hold them, so a hand-built log of single-kind records must replay under the
// batch analysis: apply, stale duplicate and wrong log alike.
func TestReplaySingleKindRecords(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, dataset.NameUniform, 308, 6, d)
	p := vec.Point{0.41, 0.59}
	want := mustBuild(t, pts, Options{Algorithm: Correct})
	if _, err := want.Insert(p); err != nil {
		t.Fatal(err)
	}
	if err := want.Delete(2); err != nil {
		t.Fatal(err)
	}

	m := iofault.NewMem()
	l, _ := wal.Open("wal", wal.Options{FS: m})
	for _, rec := range []wal.Record{
		{Kind: wal.KindInsert, ID: 1, Point: pts[1]},          // stale: the snapshot's own slot
		{Kind: wal.KindInsert, ID: int64(len(pts)), Point: p}, // the next free slot: applies
		{Kind: wal.KindDelete, ID: 2},                         // live: applies
		{Kind: wal.KindDelete, ID: 2},                         // a tombstone by now: stale
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	rec := mustBuild(t, pts, Options{Algorithm: Correct})
	rs, err := rec.Recover(m, "wal")
	if err != nil || rs.Applied != 2 || rs.Stale != 2 {
		t.Fatalf("applied %d / stale %d, err %v; want 2 / 2", rs.Applied, rs.Stale, err)
	}
	assertSameState(t, rec, want, 888)

	if _, err := rec.ApplyLogRecord(wal.Record{Kind: wal.KindInsert, ID: 0, Point: []float64{0.9, 0.9}}); err == nil {
		t.Fatal("a single insert record contradicting a live slot was accepted")
	}
}

// TestCompactionProtocol: Rotate → Save → TruncateBefore leaves a log that,
// replayed over the new snapshot, reproduces every post-snapshot mutation
// and nothing else.
func TestCompactionProtocol(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, dataset.NameUniform, 307, 8, d)
	ix := mustBuild(t, pts, Options{Algorithm: Correct})
	m := iofault.NewMem()
	l, err := wal.Open("wal", wal.Options{FS: m})
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(l)
	if _, err := ix.Insert(vec.Point{0.15, 0.85}); err != nil {
		t.Fatal(err)
	}

	// Snapshot protocol.
	cut, err := ix.RotateWAL()
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := ix.CompactWAL(cut); err != nil {
		t.Fatal(err)
	}

	// Post-snapshot mutations land in segments ≥ cut.
	if _, err := ix.Insert(vec.Point{0.25, 0.35}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(1); err != nil {
		t.Fatal(err)
	}
	l.Close()

	rec, err := Load(bytes.NewReader(snap.Bytes()), newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied != 2 {
		t.Fatalf("applied %d post-snapshot records, want 2", rs.Applied)
	}
	assertSameState(t, rec, ix, 777)
	if st := l.Stats(); st.Compactions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
