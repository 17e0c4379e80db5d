package shard

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
)

func gridOptions(shards int, grid *GridConfig) Options {
	return Options{
		Shards: shards,
		Route:  RouteGrid,
		Grid:   grid,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.Sphere},
	}
}

func mustBuildGrid(t *testing.T, pts []vec.Point, d, shards int, grid *GridConfig) *Sharded {
	t.Helper()
	s, err := Build(pts, vec.UnitCube(d), gridOptions(shards, grid))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Unit coverage of the tile arithmetic: interior boundaries go to the upper
// tile, -0.0 and 0.0 land in the same tile (they are numerically equal even
// though they are bit-distinct keys), and out-of-range query coordinates
// clamp to the boundary tiles.
func TestGridTileAssignment(t *testing.T) {
	g, err := newGridRouter(2, vec.UnitCube(2), []int{0, 1}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", g.Shards())
	}
	cases := []struct {
		p    vec.Point
		want int
	}{
		{vec.Point{0, 0}, 0},
		{vec.Point{0.24, 0.49}, 0},
		{vec.Point{0.25, 0}, 2},  // interior edge -> upper tile
		{vec.Point{0.5, 0.5}, 5}, // both coordinates on edges
		{vec.Point{0.9999, 0.99}, 7},
		{vec.Point{1, 1}, 7},                      // outer boundary stays in the last tile
		{vec.Point{math.Copysign(0, -1), 0.1}, 0}, // -0.0 == 0.0 numerically
		{vec.Point{-3, 0.6}, 1},                   // clamped queries
		{vec.Point{7, 7}, 7},
	}
	for _, c := range cases {
		if got := g.Route(c.p); got != c.want {
			t.Errorf("Route(%v) = %d, want %d", c.p, got, c.want)
		}
	}

	// Plan must enumerate every shard once, ascending by (MinDist2, Shard),
	// with the query's own tile at distance zero.
	q := vec.Point{0.1, 0.1}
	plan := g.Plan(nil, q)
	if len(plan) != g.Shards() {
		t.Fatalf("plan has %d entries, want %d", len(plan), g.Shards())
	}
	seen := map[int]bool{}
	for i, sd := range plan {
		if seen[sd.Shard] {
			t.Fatalf("plan repeats shard %d", sd.Shard)
		}
		seen[sd.Shard] = true
		if i > 0 && planLess(sd, plan[i-1]) {
			t.Fatalf("plan out of order at %d: %+v after %+v", i, sd, plan[i-1])
		}
	}
	if plan[0].Shard != g.Route(q) || plan[0].MinDist2 != 0 {
		t.Fatalf("plan head %+v, want query tile %d at distance 0", plan[0], g.Route(q))
	}
}

func TestDeriveGrid(t *testing.T) {
	// S=64 with d=8: three split dimensions at 4 tiles each (the integer
	// cube root must not misround 64^(1/3)).
	dims, counts := deriveGrid(64, 8, nil)
	if len(dims) != 3 {
		t.Fatalf("derived %d split dims for S=64, want 3", len(dims))
	}
	for _, c := range counts {
		if c != 4 {
			t.Fatalf("counts = %v, want all 4", counts)
		}
	}
	// S=10 rounds down to the nearest realizable product (3x3 = 9).
	dims10, counts10 := deriveGrid(10, 4, nil)
	g, err := newGridRouter(4, vec.UnitCube(4), dims10, counts10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != 9 {
		t.Fatalf("S=10 realized %d shards, want 9", g.Shards())
	}
	// Variance drives the dimension choice: dim 2 varies the most, dim 0
	// second; the 2-way derivation must pick exactly those.
	rng := rand.New(rand.NewSource(5))
	pts := make([]vec.Point, 200)
	for i := range pts {
		pts[i] = vec.Point{0.4 + 0.2*rng.Float64(), 0.5, rng.Float64(), 0.45 + 0.1*rng.Float64()}
	}
	dims, _ = deriveGrid(4, 4, pts)
	if len(dims) != 2 || dims[0] != 2 || dims[1] != 0 {
		t.Fatalf("variance-derived dims = %v, want [2 0]", dims)
	}
}

// The tentpole oracle test: a grid-routed sharded index must stay exactly
// equivalent to a sequential scan through rounds of batched insert/delete
// churn, with concurrent readers running against each round's mutations so
// the race detector sees the full read/write interleaving. The point stream
// includes coordinates exactly on tile boundaries and a -0.0/0.0
// bit-distinct pair (equal distances, distinct keys).
func TestGridShardedOracleUnderChurn(t *testing.T) {
	const d = 4
	const k = 5
	grid := &GridConfig{Dims: []int{0, 1}, Counts: []int{3, 3}}
	base := uniquePoints(t, 404, 240, d)
	// Boundary points: every interior edge coordinate (1/3, 2/3) in the
	// split dimensions, paired with off-grid coordinates elsewhere.
	boundary := []vec.Point{
		{1.0 / 3.0, 0.21, 0.3, 0.4},
		{2.0 / 3.0, 1.0 / 3.0, 0.6, 0.1},
		{0.99, 2.0 / 3.0, 0.2, 0.8},
		{1.0 / 3.0, 2.0 / 3.0, 0.5, 0.5},
		{0, 0, 0.7, 0.2}, // corner of tile 0
		{1, 1, 0.1, 0.9}, // far corner, last tile
	}
	// A bit-distinct pair at numerically identical coordinates: distinct
	// keys everywhere, equal distance to every query.
	zero := vec.Point{0.5, 0.25, 0.125, 0}
	negZero := vec.Point{0.5, 0.25, 0.125, math.Copysign(0, -1)}

	s, err := Build(base, vec.UnitCube(d), gridOptions(9, grid))
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]vec.Point{}
	for _, gid := range s.IDs() {
		p, _ := s.Point(gid)
		live[gid] = p
	}

	rng := rand.New(rand.NewSource(405))
	extra := uniquePoints(t, 406, 120, d)
	nextExtra := 0
	takeExtra := func(n int) []vec.Point {
		batch := extra[nextExtra : nextExtra+n]
		nextExtra += n
		return batch
	}

	// oracleNN returns the minimum distance, the lowest gid achieving it,
	// and how many live points achieve it — with the coincident -0.0/0.0
	// pair in play, exact ties are real, and the winning id among tied
	// points in the SAME shard is engine-order, not gid-order.
	oracleNN := func(q vec.Point) (gid int, d2 float64, ties int) {
		gid, d2 = -1, math.Inf(1)
		for g, p := range live {
			dd := (vec.Euclidean{}).Dist2(q, p)
			switch {
			case dd < d2:
				gid, d2, ties = g, dd, 1
			case dd == d2:
				ties++
				if g < gid {
					gid = g
				}
			}
		}
		return gid, d2, ties
	}
	oracleKDists := func(q vec.Point, k int) []float64 {
		all := make([]float64, 0, len(live))
		for _, p := range live {
			all = append(all, (vec.Euclidean{}).Dist2(q, p))
		}
		sort.Float64s(all)
		if k > len(all) {
			k = len(all)
		}
		return all[:k]
	}

	check := func(round int) {
		t.Helper()
		for i := 0; i < 40; i++ {
			q := randQuery(rng, d)
			if i%8 == 0 { // aim some queries straight at tile boundaries
				q[0] = 1.0 / 3.0
				q[1] = 2.0 / 3.0
			}
			wantID, want, ties := oracleNN(q)
			nb, err := s.NearestNeighbor(q)
			if err != nil {
				t.Fatalf("round %d: NN: %v", round, err)
			}
			if nb.Dist2 != want {
				t.Fatalf("round %d query %v: NN dist² %v, oracle %v", round, q, nb.Dist2, want)
			}
			if p, ok := s.Point(nb.ID); !ok || (vec.Euclidean{}).Dist2(q, p) != want {
				t.Fatalf("round %d query %v: NN id %d is not a live point at the NN distance", round, q, nb.ID)
			}
			if ties == 1 && nb.ID != wantID {
				t.Fatalf("round %d query %v: NN id %d, oracle id %d (unique minimum)", round, q, nb.ID, wantID)
			}
			nbs, err := s.KNearest(q, k)
			if err != nil {
				t.Fatalf("round %d: KNearest: %v", round, err)
			}
			wantK := oracleKDists(q, k)
			if len(nbs) != len(wantK) {
				t.Fatalf("round %d: KNearest returned %d, oracle %d", round, len(nbs), len(wantK))
			}
			for j, nbj := range nbs {
				if nbj.Dist2 != wantK[j] {
					t.Fatalf("round %d: KNearest[%d] dist² %v, oracle %v", round, j, nbj.Dist2, wantK[j])
				}
				p, ok := s.Point(nbj.ID)
				if !ok || (vec.Euclidean{}).Dist2(q, p) != nbj.Dist2 {
					t.Fatalf("round %d: KNearest[%d] id %d is not a live point at its distance", round, j, nbj.ID)
				}
			}
			found := false
			for _, id := range s.Candidates(q) {
				if p, ok := s.Point(id); ok && (vec.Euclidean{}).Dist2(q, p) == want {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("round %d query %v: candidate set misses the true NN", round, q)
			}
		}
	}

	specials := [][]vec.Point{boundary, {zero, negZero}}
	for round := 0; round < 4; round++ {
		// Concurrent readers race the round's mutations; they only assert
		// basic sanity (exactness is checked after the quiesce).
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := randQuery(rr, d)
					if _, err := s.NearestNeighbor(q); err != nil {
						t.Errorf("concurrent NN: %v", err)
						return
					}
					if _, err := s.KNearest(q, k); err != nil {
						t.Errorf("concurrent KNearest: %v", err)
						return
					}
					s.Candidates(q)
				}
			}(int64(round*10 + r))
		}

		batch := takeExtra(20)
		if round < len(specials) {
			batch = append(append([]vec.Point{}, batch...), specials[round]...)
		}
		gids, err := s.InsertBatch(batch)
		if err != nil {
			t.Fatalf("round %d: InsertBatch: %v", round, err)
		}
		for i, gid := range gids {
			live[gid] = batch[i]
		}
		// Delete a deterministic slice of the live set, including (in the
		// round after its insertion) one of the bit-distinct pair.
		var doomed []int
		for gid := range live {
			if len(doomed) < 12 && gid%7 == round%7 {
				doomed = append(doomed, gid)
			}
		}
		if round == 2 {
			// Target exactly the -0.0 member of the coincident pair; Equal
			// is numeric, so the sign bit is the discriminator.
			for gid, p := range live {
				if p.Equal(negZero) && math.Signbit(p[3]) {
					doomed = append(doomed, gid)
				}
			}
		}
		if err := s.DeleteBatch(doomed); err != nil {
			t.Fatalf("round %d: DeleteBatch: %v", round, err)
		}
		for _, gid := range doomed {
			delete(live, gid)
		}

		close(stop)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		check(round)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// Grid routing must actually skip shards: near-data queries on a 64-shard
// grid should probe a small handful of tiles, while hash routing probes all
// 64 every time. Both must agree with the scan oracle throughout.
func TestGridRoutingVisitsFewShards(t *testing.T) {
	const d = 8
	const S = 64
	pts := uniquePoints(t, 707, 4000, d)
	oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
	hash := mustBuild(t, pts, d, S)
	grid := mustBuildGrid(t, pts, d, S, nil)
	if grid.NumShards() != S {
		t.Fatalf("grid realized %d shards, want %d", grid.NumShards(), S)
	}
	if grid.RouteKind() != RouteGrid || hash.RouteKind() != RouteHash {
		t.Fatalf("route kinds: grid=%v hash=%v", grid.RouteKind(), hash.RouteKind())
	}

	rng := rand.New(rand.NewSource(708))
	const queries = 400
	for i := 0; i < queries; i++ {
		// Near-data queries: the serving-path distribution (clients ask near
		// known points), where the best-so-far ball is tiny.
		base := pts[rng.Intn(len(pts))]
		q := make(vec.Point, d)
		for j := range q {
			v := base[j] + rng.NormFloat64()*0.01
			q[j] = math.Min(1, math.Max(0, v))
		}
		_, want := oracle.Nearest(q)
		gn, err := grid.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		hn, err := hash.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if gn.Dist2 != want || hn.Dist2 != want {
			t.Fatalf("query %d: grid %v / hash %v, oracle %v", i, gn.Dist2, hn.Dist2, want)
		}
	}

	gs, hs := grid.RouteStats(), hash.RouteStats()
	if gs.Queries != queries || hs.Queries != queries {
		t.Fatalf("route queries: grid %d hash %d, want %d", gs.Queries, hs.Queries, queries)
	}
	if mean := float64(hs.Visited) / float64(hs.Queries); mean != S {
		t.Errorf("hash mean shards visited %v, want exactly %d", mean, S)
	}
	if mean := float64(gs.Visited) / float64(gs.Queries); mean > 4 {
		t.Errorf("grid mean shards visited %v for near-data queries, want <= 4", mean)
	}
	// The histogram must account for every query.
	var total uint64
	for _, n := range gs.Hist {
		total += n
	}
	if total != gs.Queries {
		t.Errorf("grid histogram sums to %d, want %d", total, gs.Queries)
	}
}

// KNearest satellite: the heap merge with reusable buffers must keep the
// warm k-NN path allocation-free, like the NN and Candidates paths already
// are (seed KNearest allocated three slices per call).
func TestShardedKNearestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const d = 4
	pts := uniquePoints(t, 909, 400, d)
	for _, s := range []*Sharded{mustBuild(t, pts, d, 6), mustBuildGrid(t, pts, d, 9, nil)} {
		q := randQuery(rand.New(rand.NewSource(910)), d)
		buf, err := s.KNearestAppend(nil, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = s.KNearestAppend(buf[:0], q, 8)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v-routed warm KNearestAppend: %v allocs/op, want 0", s.RouteKind(), allocs)
		}
	}
}

// The sharded k-NN answer — per-shard box searches merged through one top-k
// heap — must be the sorted scan's, global ids and Dist2 bit for bit in
// (Dist2, ID) order, under hash and grid routing alike: on uniform data and on
// a lattice whose many exact ties land in different shards, for k from 1 past
// the live count, for queries in, on the edge of and outside the data space,
// before and after batched churn.
func TestShardedKNearestMatchesScan(t *testing.T) {
	const d = 4
	for name, opts := range map[string]Options{
		"hash": testOptions(5),
		"grid": gridOptions(6, &GridConfig{Dims: []int{0, 2}, Counts: []int{3, 2}}),
	} {
		for _, lattice := range []bool{false, true} {
			opts.Index.Algorithm = nncell.NNDirection
			pts := uniquePoints(t, 911, 300, d)
			if lattice {
				pts = dataset.Grid(nil, 256, d, 0) // 4 a side: binary fractions, exact ties
			}
			s, err := Build(pts[:220], vec.UnitCube(d), opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(912))
			check := func(stage string) {
				t.Helper()
				gids := s.IDs()
				for trial := 0; trial < 40; trial++ {
					q := randQuery(rng, d)
					switch trial % 5 {
					case 2: // lattice tie points, faces and corners
						for j := range q {
							q[j] = float64(rng.Intn(5)) / 4
						}
					case 3:
						q[trial%d] -= 1.25
					case 4:
						q, _ = s.Point(gids[rng.Intn(len(gids))])
					}
					all := make([]nncell.Neighbor, len(gids))
					for i, gid := range gids {
						p, _ := s.Point(gid)
						all[i] = nncell.Neighbor{ID: gid, Dist2: vec.Euclidean{}.Dist2(q, p)}
					}
					sort.Slice(all, func(a, b int) bool { return all[a].Less(all[b]) })
					for _, k := range []int{1, 2, 10, 100, len(gids), len(gids) + 5} {
						got, err := s.KNearest(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if want := all[:min(k, len(all))]; !slices.Equal(got, want) {
							t.Fatalf("%s/lattice=%v/%s q=%v k=%d:\n got %v\nwant %v", name, lattice, stage, q, k, got, want)
						}
					}
				}
			}
			check("built")
			if _, err := s.InsertBatch(pts[220:]); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteBatch(s.IDs()[10:50]); err != nil {
				t.Fatal(err)
			}
			check("churned")
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// NewEmpty satellite: both routing policies must bootstrap with zero points,
// reject queries with ErrEmpty, then accept routed inserts and answer
// exactly.
func TestShardedNewEmpty(t *testing.T) {
	const d = 3
	for _, opts := range []Options{testOptions(4), gridOptions(8, nil)} {
		s, err := NewEmpty(d, vec.UnitCube(d), opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("empty index has %d points", s.Len())
		}
		q := vec.Point{0.5, 0.5, 0.5}
		if _, err := s.NearestNeighbor(q); err != nncell.ErrEmpty {
			t.Fatalf("NN on empty: %v, want ErrEmpty", err)
		}
		if _, err := s.KNearest(q, 3); err != nncell.ErrEmpty {
			t.Fatalf("KNearest on empty: %v, want ErrEmpty", err)
		}
		pts := uniquePoints(t, 511, 60, d)
		if _, err := s.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
		oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
		rng := rand.New(rand.NewSource(512))
		for i := 0; i < 30; i++ {
			q := randQuery(rng, d)
			nb, err := s.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := oracle.Nearest(q); nb.Dist2 != want {
				t.Fatalf("bootstrap NN dist² %v, oracle %v", nb.Dist2, want)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Invalid bootstraps fail loudly.
	if _, err := NewEmpty(0, vec.UnitCube(1), testOptions(2)); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewEmpty(3, vec.UnitCube(2), testOptions(2)); err == nil {
		t.Error("mismatched bounds accepted")
	}
}

// Persistence: a grid-routed snapshot must round-trip with its routing
// config (placement identical after load), and an all-empty snapshot must
// round-trip via the header geometry.
func TestShardedPersistRoundTripGrid(t *testing.T) {
	const d = 4
	pts := uniquePoints(t, 611, 150, d)
	s := mustBuildGrid(t, pts, d, 9, &GridConfig{Dims: []int{1, 3}, Counts: []int{3, 3}})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), Options{Pager: pager.Config{CachePages: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RouteKind() != RouteGrid || loaded.NumShards() != 9 {
		t.Fatalf("loaded %v-routed %d shards, want grid-routed 9", loaded.RouteKind(), loaded.NumShards())
	}
	rng := rand.New(rand.NewSource(612))
	for i := 0; i < 40; i++ {
		q := randQuery(rng, d)
		a, err := s.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.ID != b.ID || a.Dist2 != b.Dist2 {
			t.Fatalf("query %d: original (%d, %v), loaded (%d, %v)", i, a.ID, a.Dist2, b.ID, b.Dist2)
		}
	}
	// Routed inserts keep working against the reconstructed router.
	extra := uniquePoints(t, 613, 170, d)[150:]
	if _, err := loaded.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// All-empty round trip: geometry and routing come from the header.
	empty, err := NewEmpty(d, vec.UnitCube(d), gridOptions(9, &GridConfig{Dims: []int{0, 2}, Counts: []int{3, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	eloaded, err := Load(bytes.NewReader(buf.Bytes()), Options{Pager: pager.Config{CachePages: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if eloaded.Len() != 0 || eloaded.Dim() != d || eloaded.NumShards() != 9 || eloaded.RouteKind() != RouteGrid {
		t.Fatalf("all-empty round trip: len=%d dim=%d shards=%d kind=%v", eloaded.Len(), eloaded.Dim(), eloaded.NumShards(), eloaded.RouteKind())
	}
	if _, err := eloaded.InsertBatch(pts[:20]); err != nil {
		t.Fatal(err)
	}
	if err := eloaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A v1 stream (magic, shard count, per-shard presence/blobs; no routing
// header) had a loader until nothing wrote the format any more. Load now
// rejects it by its magic, and the sniffing callers no longer claim it.
func TestShardedLoadRejectsV1(t *testing.T) {
	v1 := append([]byte("NNSHRDv1"), 2, 0, 0, 0, 0, 0) // two absent shards
	if IsSnapshotMagic(string(v1[:len(Magic)])) {
		t.Error("IsSnapshotMagic still claims the v1 magic")
	}
	_, err := Load(bytes.NewReader(v1), Options{Pager: pager.Config{CachePages: 16}})
	if err == nil || !strings.Contains(err.Error(), `bad magic "NNSHRDv1"`) {
		t.Fatalf("v1 load: err = %v, want the bad-magic error", err)
	}
}

// Corrupted v2 routing headers must be rejected, not silently misroute.
func TestShardedLoadRejectsCorruptRouting(t *testing.T) {
	const d = 2
	pts := uniquePoints(t, 616, 60, d)
	s := mustBuildGrid(t, pts, d, 4, &GridConfig{Dims: []int{0, 1}, Counts: []int{2, 2}})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	kindOff := len(Magic) + 4 + 2 + 8*d + 8*d // magic, count, dim, lo, hi

	corrupt := func(name string, mutate func(b []byte)) {
		t.Helper()
		b := append([]byte{}, good...)
		mutate(b)
		if _, err := Load(bytes.NewReader(b), Options{}); err == nil {
			t.Errorf("%s: corrupt stream loaded", name)
		}
	}
	corrupt("unknown route kind", func(b []byte) { b[kindOff] = 7 })
	corrupt("absurd split-dim count", func(b []byte) { b[kindOff+1] = 9 })
	corrupt("split dim out of range", func(b []byte) { b[kindOff+2] = 5 })
	corrupt("tile count zero", func(b []byte) {
		// first split's count (u16 dim, then u32 count)
		copy(b[kindOff+4:kindOff+8], []byte{0, 0, 0, 0})
	})
	// Claiming hash routing over grid-placed blobs must trip the routing
	// invariant (placement disagrees), not load silently.
	corrupt("policy swapped to hash", func(b []byte) { b[kindOff] = 0 })
}

// The sharded NN answer — merged from the per-shard cell-directory queries —
// must be the scan's, Dist2 bit-for-bit, and must equal the best of the
// shards' paged cell-tree answers, under hash and grid routing alike, before
// and after batched churn.
func TestShardedDirectoryMatchesPagedAndScan(t *testing.T) {
	const d = 4
	pts := uniquePoints(t, 701, 360, d)
	for name, opts := range map[string]Options{
		"hash": testOptions(5),
		"grid": gridOptions(6, &GridConfig{Dims: []int{0, 2}, Counts: []int{3, 2}}),
	} {
		s, err := Build(pts[:300], vec.UnitCube(d), opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(702))
		check := func(stage string) {
			t.Helper()
			gids := s.IDs()
			live := make([]vec.Point, len(gids))
			for i, gid := range gids {
				live[i], _ = s.Point(gid)
			}
			oracle := scan.New(live, vec.Euclidean{}, pager.New(pager.Config{}))
			for trial := 0; trial < 150; trial++ {
				q := randQuery(rng, d)
				if trial%10 == 9 {
					q[trial%d] -= 1.25 // outside the data space
				}
				wantIdx, wantD2 := oracle.Nearest(q)
				got, err := s.NearestNeighbor(q)
				if err != nil {
					t.Fatal(err)
				}
				if gp, _ := s.Point(got.ID); got.Dist2 != wantD2 || !gp.Equal(live[wantIdx]) {
					t.Fatalf("%s/%s q=%v: sharded %+v (%v), scan %v at dist² %v", name, stage, q, got, gp, live[wantIdx], wantD2)
				}
				paged := math.Inf(1)
				for i := 0; i < s.NumShards(); i++ {
					if nb, err := s.Shard(i).NearestNeighborPaged(q); err == nil && nb.Dist2 < paged {
						paged = nb.Dist2
					}
				}
				if paged != wantD2 {
					t.Fatalf("%s/%s q=%v: best paged shard answer %v, scan %v", name, stage, q, paged, wantD2)
				}
			}
		}
		check("built")
		if _, err := s.InsertBatch(pts[300:]); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteBatch(s.IDs()[:40]); err != nil {
			t.Fatal(err)
		}
		check("churned")
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
