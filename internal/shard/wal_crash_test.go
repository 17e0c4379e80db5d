package shard

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/iofault"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/wal"
)

func assertShardedEqual(t *testing.T, got, want *Sharded, seed int64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	gotIDs, wantIDs := got.IDs(), want.IDs()
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("IDs = %v, want %v", gotIDs, wantIDs)
	}
	for k, gid := range wantIDs {
		if gotIDs[k] != gid {
			t.Fatalf("IDs = %v, want %v", gotIDs, wantIDs)
		}
		gp, _ := got.Point(gid)
		wp, _ := want.Point(gid)
		for j := range wp {
			if math.Float64bits(gp[j]) != math.Float64bits(wp[j]) {
				t.Fatalf("point %d: %v vs %v", gid, gp, wp)
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("recovered sharded invariants: %v", err)
	}
	live := make([]vec.Point, 0, len(wantIDs))
	for _, gid := range wantIDs {
		p, _ := want.Point(gid)
		live = append(live, p)
	}
	oracle := scan.New(live, vec.Euclidean{}, pager.New(pager.Config{CachePages: 64}))
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

// TestShardedWALRecovery: routed mutations land in per-shard logs; a
// restart from the pre-mutation snapshot plus the logs reproduces the
// exact post-mutation state. Shard 0 is drained before the snapshot: its
// tombstone slots must survive it, or the insert records that follow name
// local ids beyond the reloaded shard's point table and replay stops.
func TestShardedWALRecovery(t *testing.T) {
	const d, S = 3, 3
	pts := uniquePoints(t, 401, 40, d)
	s := mustBuild(t, pts, d, S)
	for _, gid := range s.IDs() {
		if shard, _ := s.splitID(gid); shard == 0 {
			if err := s.Delete(gid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Shard(0).Len() != 0 || s.Len() == len(pts) {
		t.Fatalf("shard 0 holds %d of %d points after draining it", s.Shard(0).Len(), s.Len())
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}

	m := iofault.NewMem()
	if err := s.OpenWALs("wal", wal.Options{FS: m}); err != nil {
		t.Fatal(err)
	}
	extra := uniquePoints(t, 402, 50, d)[40:]
	var inserted []int
	for _, p := range extra {
		gid, err := s.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, gid)
	}
	for _, gid := range []int{s.IDs()[0], inserted[2], s.IDs()[7]} {
		if err := s.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	st := s.WALStats()
	if st.Appends != uint64(len(extra)+3) {
		t.Fatalf("wal appends = %d, want %d", st.Appends, len(extra)+3)
	}
	if err := s.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	// "Restart": load the old snapshot and replay the per-shard logs.
	rec, err := Load(bytes.NewReader(snap.Bytes()), testOptions(S))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied != uint64(len(extra)+3) {
		t.Fatalf("recovery applied %d records, want %d", rs.Applied, len(extra)+3)
	}
	if rs.Segments < S {
		t.Fatalf("replayed %d segments over %d shards", rs.Segments, S)
	}
	assertShardedEqual(t, rec, s, 403)
}

// TestShardedWALTornShard: a torn tail in ONE shard's log loses only that
// shard's unsynced suffix; the other shards recover in full.
func TestShardedWALTornShard(t *testing.T) {
	const d, S = 2, 2
	pts := uniquePoints(t, 404, 20, d)
	s := mustBuild(t, pts, d, S)
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	m := iofault.NewMem()
	if err := s.OpenWALs("wal", wal.Options{FS: m}); err != nil {
		t.Fatal(err)
	}
	extra := uniquePoints(t, 405, 30, d)[20:]
	perShard := make([]int, S)
	for _, p := range extra {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
		perShard[route(p, S)]++
	}
	// Pick a shard that got records and tear the last record's final byte.
	victim := 0
	for i, n := range perShard {
		if n > 0 {
			victim = i
		}
	}
	seg := s.Shard(victim).WAL().ActiveSegmentPath()
	if err := s.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	data, _ := m.Bytes(seg)
	m.TruncateFile(seg, len(data)-1)

	rec, err := Load(bytes.NewReader(snap.Bytes()), testOptions(S))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if rs.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", rs.TornSegments)
	}
	if want := uint64(len(extra) - 1); rs.Applied != want {
		t.Fatalf("applied %d records, want %d (all but the torn one)", rs.Applied, want)
	}
	if rec.Len() != s.Len()-1 {
		t.Fatalf("recovered %d points, want %d", rec.Len(), s.Len()-1)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCompaction: the sharded Rotate→Save→Compact protocol, with a
// recovery over the compacted logs.
func TestShardedCompaction(t *testing.T) {
	const d, S = 2, 2
	pts := uniquePoints(t, 406, 16, d)
	s := mustBuild(t, pts, d, S)
	m := iofault.NewMem()
	if err := s.OpenWALs("wal", wal.Options{FS: m}); err != nil {
		t.Fatal(err)
	}
	pre := uniquePoints(t, 407, 20, d)[16:]
	for _, p := range pre {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	cuts, err := s.RotateWAL()
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactWAL(cuts); err != nil {
		t.Fatal(err)
	}
	post := uniquePoints(t, 408, 24, d)[20:]
	for _, p := range post {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	rec, err := Load(bytes.NewReader(snap.Bytes()), testOptions(S))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied != uint64(len(post)) {
		t.Fatalf("applied %d records after compaction, want %d", rs.Applied, len(post))
	}
	assertShardedEqual(t, rec, s, 409)
}
