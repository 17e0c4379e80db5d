package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
)

func testOptions(shards int) Options {
	return Options{
		Shards: shards,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.Sphere},
	}
}

func uniquePoints(t *testing.T, seed int64, n, d int) []vec.Point {
	t.Helper()
	pts := dataset.Deduplicate(dataset.Uniform(rand.New(rand.NewSource(seed)), n+n/4, d))
	if len(pts) < n {
		t.Fatalf("only %d unique points, want %d", len(pts), n)
	}
	return pts[:n]
}

func mustBuild(t *testing.T, pts []vec.Point, d, shards int) *Sharded {
	t.Helper()
	s, err := Build(pts, vec.UnitCube(d), testOptions(shards))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randQuery(rng *rand.Rand, d int) vec.Point {
	q := make(vec.Point, d)
	for j := range q {
		q[j] = rng.Float64()
	}
	return q
}

// The oracle test of the PR: a sharded index must answer every query with
// exactly the same point and distance as a single-shard index over the same
// point set. IDs are compared through Point() because the global-id
// interleaving depends on S.
func TestShardedMatchesSingleShard(t *testing.T) {
	const d = 4
	pts := uniquePoints(t, 101, 300, d)
	single := mustBuild(t, pts, d, 1)
	for _, S := range []int{2, 4, 7} {
		sharded := mustBuild(t, pts, d, S)
		if sharded.Len() != single.Len() {
			t.Fatalf("S=%d: Len = %d, want %d", S, sharded.Len(), single.Len())
		}
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 100; trial++ {
			q := randQuery(rng, d)

			want, err := single.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			wp, _ := single.Point(want.ID)
			gp, ok := sharded.Point(got.ID)
			if !ok || !gp.Equal(wp) || math.Abs(got.Dist2-want.Dist2) > 1e-12 {
				t.Fatalf("S=%d trial %d: NN %v (%v), want %v (%v)", S, trial, got, gp, want, wp)
			}

			wantK, err := single.KNearest(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := sharded.KNearest(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("S=%d trial %d: %d k-NN results, want %d", S, trial, len(gotK), len(wantK))
			}
			for i := range wantK {
				wp, _ := single.Point(wantK[i].ID)
				gp, _ := sharded.Point(gotK[i].ID)
				if !gp.Equal(wp) || math.Abs(gotK[i].Dist2-wantK[i].Dist2) > 1e-12 {
					t.Fatalf("S=%d trial %d rank %d: got %v (%v), want %v (%v)",
						S, trial, i, gotK[i], gp, wantK[i], wp)
				}
			}

			// The per-shard candidate union is a superset of the single-index
			// set (fewer points per shard → larger cells), so the check is the
			// no-false-dismissal guarantee: the true NN must be among them.
			found := false
			for _, gid := range sharded.Candidates(q) {
				if cp, ok := sharded.Point(gid); ok && cp.Equal(wp) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("S=%d trial %d: candidate union misses the true NN %v", S, trial, wp)
			}
		}
		if err := sharded.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// Batch results must be positionally identical to sequential fan-out queries.
func TestShardedBatchMatchesSequential(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, 103, 200, d)
	s := mustBuild(t, pts, d, 4)
	rng := rand.New(rand.NewSource(104))
	qs := make([]vec.Point, 57)
	for i := range qs {
		qs[i] = randQuery(rng, d)
	}
	got, err := s.NearestNeighborBatch(qs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := s.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("query %d: batch %v, sequential %v", i, got[i], want)
		}
	}
}

// Routed dynamic maintenance through the sharded layer must preserve
// exactness: interleaved inserts and deletes, then an oracle sweep.
func TestShardedDynamicOracle(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, 105, 300, d)
	s := mustBuild(t, pts[:100], d, 4)

	live := make(map[int]vec.Point) // gid -> point
	for _, gid := range s.IDs() {
		p, _ := s.Point(gid)
		live[gid] = p
	}
	rng := rand.New(rand.NewSource(106))
	next := 100
	for op := 0; op < 150; op++ {
		if (rng.Float64() < 0.6 && next < len(pts)) || len(live) <= 2 {
			gid, err := s.Insert(pts[next])
			if err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			if p, ok := s.Point(gid); !ok || !p.Equal(pts[next]) {
				t.Fatalf("op %d: inserted gid %d resolves to %v, want %v", op, gid, p, pts[next])
			}
			live[gid] = pts[next]
			next++
		} else {
			var victim int
			k := rng.Intn(len(live))
			for gid := range live {
				if k == 0 {
					victim = gid
					break
				}
				k--
			}
			if err := s.Delete(victim); err != nil {
				t.Fatalf("op %d delete %d: %v", op, victim, err)
			}
			delete(live, victim)
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
	livePts := make([]vec.Point, 0, len(live))
	for _, p := range live {
		livePts = append(livePts, p)
	}
	oracle := scan.New(livePts, vec.Euclidean{}, pager.New(pager.Config{CachePages: 64}))
	for trial := 0; trial < 80; trial++ {
		q := randQuery(rng, d)
		_, wantD2 := oracle.Nearest(q)
		got, err := s.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, wantD2)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Mixed workload under real concurrency: routed inserts and deletes to
// different shards proceed in parallel with fan-out queries. Run with -race
// (the Makefile race target covers this package); correctness is then
// verified by an oracle sweep over the final live set.
func TestShardedMixedWorkloadConcurrent(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, 107, 320, d)
	s := mustBuild(t, pts[:200], d, 4)

	baseIDs := s.IDs()
	deleted := make([]vec.Point, 60)
	for i := 0; i < 60; i++ {
		p, ok := s.Point(baseIDs[i])
		if !ok {
			t.Fatalf("base id %d has no point", baseIDs[i])
		}
		deleted[i] = p
	}

	var writers, readers sync.WaitGroup
	errCh := make(chan error, 8)
	insert := func(batch []vec.Point) {
		defer writers.Done()
		for _, p := range batch {
			if _, err := s.Insert(p); err != nil {
				errCh <- err
				return
			}
		}
	}
	writers.Add(2)
	go insert(pts[200:260])
	go insert(pts[260:320])
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 60; i++ {
			if err := s.Delete(baseIDs[i]); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Query goroutines run fan-out reads for the whole write phase; the index
	// is never empty, so every query must succeed.
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := randQuery(rng, d)
				if _, err := s.NearestNeighbor(q); err != nil {
					errCh <- err
					return
				}
				if _, err := s.KNearest(q, 5); err != nil {
					errCh <- err
					return
				}
			}
		}(108 + int64(g))
	}
	writers.Wait()
	close(done)
	readers.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	removed := make(map[string]bool, len(deleted))
	for _, p := range deleted {
		removed[p.String()] = true
	}
	var livePts []vec.Point
	for _, p := range pts[:320] {
		if !removed[p.String()] {
			livePts = append(livePts, p)
		}
	}
	if s.Len() != len(livePts) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(livePts))
	}
	oracle := scan.New(livePts, vec.Euclidean{}, pager.New(pager.Config{CachePages: 64}))
	rng := rand.New(rand.NewSource(110))
	for trial := 0; trial < 60; trial++ {
		q := randQuery(rng, d)
		_, wantD2 := oracle.Nearest(q)
		got, err := s.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, wantD2)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The warm sharded read path must stay allocation-free, whatever the routing:
// the fan-out is a sequential loop over per-shard queries that each run on a
// pooled QueryCtx, and under grid routing the bound CandidatesAppend prunes
// farther shards with is taken inside the shard, not from a copy of every
// candidate's point.
func TestShardedNearestNeighborAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const d = 4
	pts := uniquePoints(t, 111, 250, d)
	q := vec.Point{0.3, 0.7, 0.2, 0.9}
	for name, s := range map[string]*Sharded{
		"hash": mustBuild(t, pts, d, 4),
		"grid": mustBuildGrid(t, pts, d, 4),
	} {
		for i := 0; i < 5; i++ { // warm the per-shard QueryCtx pools
			if _, err := s.NearestNeighbor(q); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.NearestNeighbor(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm sharded NearestNeighbor: %v allocs/op, want 0", name, allocs)
		}
		// CandidatesAppend into a reused buffer is likewise allocation-free
		// once the buffer has grown to the working size.
		buf := s.CandidatesAppend(nil, q)
		allocs = testing.AllocsPerRun(100, func() {
			buf = s.CandidatesAppend(buf[:0], q)
		})
		if allocs != 0 {
			t.Errorf("%s: warm sharded CandidatesAppend: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestShardedValidation(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, 112, 40, d)
	s := mustBuild(t, pts, d, 4)
	if _, err := s.Insert(vec.Point{0.1, 0.2, 0.3}); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if _, err := s.Insert(pts[7]); err == nil {
		t.Error("duplicate accepted")
	}
	if err := s.Delete(-1); err == nil {
		t.Error("negative id accepted")
	}
	if err := s.Delete(s.Len()*8 + 3); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := Build(nil, vec.UnitCube(d), testOptions(2)); err != nncell.ErrEmpty {
		t.Errorf("empty build: err = %v, want ErrEmpty", err)
	}
	if _, err := Build(pts, vec.UnitCube(3), testOptions(2)); err == nil {
		t.Error("bounds/point dimension mismatch accepted")
	}
}

// A failing sub-batch names its shard and leaves that shard as it was: an
// InsertBatch whose sub-batch for one shard holds a point that shard already
// stores, and a DeleteBatch with an id that shard never gave out. Every other
// shard's sub-batch commits whole or not at all, the invariants hold, and
// queries over the committed points stay equal to the scan's.
func TestShardedBatchErrorNamesShard(t *testing.T) {
	const d, S = 3, 4
	pts := uniquePoints(t, 114, 260, d)
	s := mustBuild(t, pts[:200], d, S)
	dup := pts[7]
	bad := s.router.Route(dup)
	rng := rand.New(rand.NewSource(115))

	shardPoints := func() [][]vec.Point {
		out := make([][]vec.Point, S)
		for i := range out {
			ix := s.Shard(i)
			for _, id := range ix.IDs() {
				p, _ := ix.Point(id)
				out[i] = append(out[i], p)
			}
		}
		return out
	}
	// check asserts the outcome of a batch that moved shard i's point count
	// by delta[i] had it committed everywhere.
	check := func(op string, err error, want string, before [][]vec.Point, delta []int) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("shard %d: ", bad)) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want a %q error naming shard %d", op, err, want, bad)
		}
		after := shardPoints()
		if !slices.EqualFunc(after[bad], before[bad], vec.Point.Equal) {
			t.Fatalf("%s: failing shard %d went from %d to %d points", op, bad, len(before[bad]), len(after[bad]))
		}
		for i := range after {
			if n := len(after[i]); i != bad && n != len(before[i]) && n != len(before[i])+delta[i] {
				t.Fatalf("%s: shard %d went from %d to %d points, its sub-batch moves %+d", op, i, len(before[i]), n, delta[i])
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		var live []vec.Point
		for _, gid := range s.IDs() {
			p, _ := s.Point(gid)
			live = append(live, p)
		}
		oracle := scan.New(live, vec.Euclidean{}, pager.New(pager.Config{}))
		for trial := 0; trial < 50; trial++ {
			q := randQuery(rng, d)
			wantIdx, wantD2 := oracle.Nearest(q)
			got, err := s.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			if gp, _ := s.Point(got.ID); got.Dist2 != wantD2 || !gp.Equal(live[wantIdx]) {
				t.Fatalf("%s: NN(%v) = %v at dist² %v, scan %v at %v", op, q, gp, got.Dist2, live[wantIdx], wantD2)
			}
		}
	}

	// The duplicate sits among fresh points, so the failing shard has staged
	// some of its sub-batch before it meets the duplicate.
	batch := slices.Concat(pts[200:230], []vec.Point{dup}, pts[230:])
	delta := make([]int, S)
	for _, p := range batch {
		delta[s.router.Route(p)]++
	}
	if delta[bad] < 3 {
		t.Fatalf("shard %d gets %d points of the batch: too few to stage any", bad, delta[bad])
	}
	before := shardPoints()
	_, err := s.InsertBatch(batch)
	check("InsertBatch", err, "duplicate point", before, delta)

	// Two ids of every shard, then one the failing shard never gave out.
	var gids []int
	clear(delta)
	for i := 0; i < S; i++ {
		for _, local := range s.Shard(i).IDs()[:2] {
			gids = append(gids, s.globalID(i, local))
			delta[i]--
		}
	}
	gids = append(gids, s.globalID(bad, 10000))
	before = shardPoints()
	check("DeleteBatch", s.DeleteBatch(gids), "unknown id", before, delta)
}

// A tiny point set over many shards leaves most shards empty; they must
// accept routed inserts, and draining the index entirely must yield ErrEmpty
// and then accept fresh inserts.
func TestShardedEmptyShardsAndDrain(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, 113, 24, d)
	s := mustBuild(t, pts[:3], d, 8)
	empty := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).Len() == 0 {
			empty++
		}
	}
	if empty < 5 {
		t.Fatalf("%d empty shards among 8 holding 3 points", empty)
	}
	for _, p := range pts[3:] {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(pts))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, gid := range s.IDs() {
		if err := s.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 0 || s.Stats().Fragments != 0 {
		t.Fatalf("Len=%d Fragments=%d after draining", s.Len(), s.Stats().Fragments)
	}
	if _, err := s.NearestNeighbor(vec.Point{0.5, 0.5}); err != nncell.ErrEmpty {
		t.Errorf("query on drained index: err = %v, want ErrEmpty", err)
	}
	if _, err := s.KNearest(vec.Point{0.5, 0.5}, 3); err != nncell.ErrEmpty {
		t.Errorf("k-NN on drained index: err = %v, want ErrEmpty", err)
	}
	// The batch path propagates the per-query error (fail-fast).
	if _, err := s.NearestNeighborBatch([]vec.Point{{0.5, 0.5}, {0.1, 0.9}}, 2); err != nncell.ErrEmpty {
		t.Errorf("batch on drained index: err = %v, want ErrEmpty", err)
	}
	gid, err := s.Insert(pts[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.NearestNeighbor(vec.Point{0.9, 0.9})
	if err != nil || got.ID != gid {
		t.Errorf("NN after reinsert = %v, %v; want id %d", got, err, gid)
	}
}

// A sharded index with no live point — never filled, or drained by deletes —
// round-trips with its tombstone slots: the reloaded index hands the next
// insert the global id the original hands out, not one already used.
func TestShardedSaveLoadNoLivePoints(t *testing.T) {
	const d, S = 2, 2
	pts := uniquePoints(t, 115, 6, d)
	for _, drained := range []int{0, len(pts) - 1} {
		s, err := NewEmpty(d, vec.UnitCube(d), testOptions(S))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts[:drained] {
			gid, err := s.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(gid); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, testOptions(0))
		if err != nil {
			t.Fatalf("%d drained slots: %v", drained, err)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("%d drained slots: %v", drained, err)
		}
		if loaded.Len() != 0 || loaded.NumShards() != S {
			t.Fatalf("%d drained slots: loaded Len=%d NumShards=%d", drained, loaded.Len(), loaded.NumShards())
		}
		p := pts[len(pts)-1]
		want, err := s.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Insert(p)
		if err != nil || got != want {
			t.Fatalf("%d drained slots: Insert after reload = id %d, %v; the saved index gives %d", drained, got, err, want)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("%d drained slots, after insert: %v", drained, err)
		}
	}

	// Save never writes the absent flag; a stream that carries it (a snapshot
	// an earlier version took of an empty shard) still loads. Header, hash
	// routing, two absent shards:
	stream := []byte(Magic)
	stream = binary.LittleEndian.AppendUint32(stream, S)
	stream = binary.LittleEndian.AppendUint16(stream, d)
	for _, v := range []float64{0, 0, 1, 1} {
		stream = binary.LittleEndian.AppendUint64(stream, math.Float64bits(v))
	}
	stream = append(stream, byte(RouteHash), 0, 0)
	old, err := Load(bytes.NewReader(stream), testOptions(0))
	if err != nil {
		t.Fatalf("all-absent stream: %v", err)
	}
	if old.Len() != 0 || old.NumShards() != S {
		t.Fatalf("all-absent stream: loaded Len=%d NumShards=%d", old.Len(), old.NumShards())
	}
	if _, err := old.Insert(pts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestShardedPersistRoundTrip(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, 114, 130, d)
	// 9 shards over 120 points: occasionally a shard is empty, and the
	// 3-point variant below guarantees shards that never held a point.
	for _, tc := range []struct {
		n, S int
	}{{120, 9}, {3, 8}} {
		s := mustBuild(t, pts[:tc.n], d, tc.S)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()), testOptions(0))
		if err != nil {
			t.Fatalf("n=%d S=%d: %v", tc.n, tc.S, err)
		}
		if got.NumShards() != tc.S || got.Len() != tc.n || got.Dim() != d {
			t.Fatalf("n=%d S=%d: loaded NumShards=%d Len=%d Dim=%d",
				tc.n, tc.S, got.NumShards(), got.Len(), got.Dim())
		}
		wantIDs := s.IDs()
		gotIDs := got.IDs()
		if len(wantIDs) != len(gotIDs) {
			t.Fatalf("n=%d S=%d: %d ids, want %d", tc.n, tc.S, len(gotIDs), len(wantIDs))
		}
		for i, gid := range wantIDs {
			if gotIDs[i] != gid {
				t.Fatalf("n=%d S=%d: id[%d] = %d, want %d", tc.n, tc.S, i, gotIDs[i], gid)
			}
			wp, _ := s.Point(gid)
			gp, ok := got.Point(gid)
			if !ok || !gp.Equal(wp) {
				t.Fatalf("n=%d S=%d: point %d = %v, want %v", tc.n, tc.S, gid, gp, wp)
			}
		}
		rng := rand.New(rand.NewSource(115))
		for trial := 0; trial < 40; trial++ {
			q := randQuery(rng, d)
			want, err := s.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			nb, err := got.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			if nb != want {
				t.Fatalf("n=%d S=%d trial %d: NN %v, want %v", tc.n, tc.S, trial, nb, want)
			}
		}
		// The loaded index must keep accepting routed dynamic updates —
		// including into shards that were empty in the stream.
		for _, p := range pts[tc.n : tc.n+6] {
			if _, err := got.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardedLoadRejectsCorruption(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, 116, 50, d)
	s := mustBuild(t, pts, d, 3)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":        append([]byte("NNSHRDv9"), good[8:]...),
		"truncated header": good[:10],
		"truncated blob":   good[:len(good)-7],
		"trailing garbage": append(append([]byte{}, good...), 0xAB),
	}
	// Flip one byte inside the first shard blob: the inner v2 CRC must catch it.
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped

	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data), testOptions(0)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Stats and ShardStats must agree with each other and with the index shape.
func TestShardStats(t *testing.T) {
	const d = 3
	pts := uniquePoints(t, 117, 90, d)
	s := mustBuild(t, pts, d, 4)
	q := vec.Point{0.5, 0.5, 0.5}
	for i := 0; i < 7; i++ {
		if _, err := s.NearestNeighbor(q); err != nil {
			t.Fatal(err)
		}
	}
	sts := s.ShardStats()
	if len(sts) != 4 {
		t.Fatalf("%d shard stats", len(sts))
	}
	points, queries := 0, uint64(0)
	for _, st := range sts {
		points += st.Points
		queries += st.Queries
	}
	if points != s.Len() {
		t.Errorf("per-shard points sum %d, Len %d", points, s.Len())
	}
	agg := s.Stats()
	if agg.Fragments != uint64(points) {
		t.Errorf("aggregate cell rectangles %d, per-shard points sum %d", agg.Fragments, points)
	}
	if agg.Queries != queries {
		t.Errorf("aggregate queries %d, per-shard sum %d", agg.Queries, queries)
	}
	// Every shard was probed by the fan-out, so each records the queries.
	for i, st := range sts {
		if st.Queries == 0 {
			t.Errorf("shard %d saw no queries", i)
		}
	}
	// The Sphere selection read the leaf pages of each shard's point X-tree
	// during the build; a built index keeps no tree.
	for i := 0; i < s.NumShards(); i++ {
		pst := s.Shard(i).PagerStats()
		if pst.Accesses == 0 {
			t.Errorf("shard %d: no pager accesses recorded", i)
		}
		if pst.Allocs != pst.Frees {
			t.Errorf("shard %d: %d pages live in a built index", i, pst.Allocs-pst.Frees)
		}
	}
}
