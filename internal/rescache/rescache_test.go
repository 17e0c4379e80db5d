package rescache

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

func randPoint(rng *rand.Rand, d int) vec.Point {
	p := make(vec.Point, d)
	for j := range p {
		p[j] = rng.Float64()
	}
	return p
}

func buildSerial(t testing.TB, rng *rand.Rand, n, d int, opts nncell.Options) *nncell.Index {
	t.Helper()
	pts := make([]vec.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, d)
	}
	ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 64}), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// model mirrors the live point set so tests can brute-force the exact
// answer.
type model map[int]vec.Point

// nearest is the brute-force oracle: lowest id wins ties, matching the
// index's deterministic tie-break.
func (m model) nearest(q vec.Point) nncell.Neighbor {
	metric := vec.Euclidean{}
	best := nncell.Neighbor{ID: -1, Dist2: math.Inf(1)}
	for id, p := range m {
		d2 := metric.Dist2(q, p)
		if d2 < best.Dist2 || (d2 == best.Dist2 && id < best.ID) {
			best = nncell.Neighbor{ID: id, Dist2: d2}
		}
	}
	return best
}

// The failure mode the cache must not have: a memoized answer surviving an
// insert that moved the query's cell boundary. The inserted point is the
// query point itself, so the old answer is provably wrong afterwards.
func TestCacheInvalidatedByCloserInsert(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(72))
	ix := buildSerial(t, rng, 60, d, nncell.Options{Algorithm: nncell.Sphere})
	front := NewFront(ix, 256)

	q := randPoint(rng, d)
	before, err := front.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := front.Cache().Get(q); !ok {
		t.Fatal("answer was not cached")
	}
	id, err := front.Insert(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	after, err := front.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.ID != id || after.Dist2 != 0 {
		t.Fatalf("after inserting the query point: got %+v (before %+v), want id %d at distance 0",
			after, before, id)
	}
}

// Deleting the cached answer itself must invalidate (the deleted id IS the
// cell the entry is indexed under).
func TestCacheInvalidatedByAnswerDelete(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(73))
	ix := buildSerial(t, rng, 60, d, nncell.Options{Algorithm: nncell.Sphere})
	front := NewFront(ix, 256)
	m := model{}
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m[id] = p
	}

	q := randPoint(rng, d)
	before, err := front.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Delete(before.ID); err != nil {
		t.Fatal(err)
	}
	delete(m, before.ID)
	after, err := front.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.ID == before.ID {
		t.Fatalf("query still answered with deleted point %d", before.ID)
	}
	if want := m.nearest(q); after.ID != want.ID {
		t.Fatalf("got id %d, oracle %d", after.ID, want.ID)
	}
}

// Epoch guard: a fill whose epoch was captured before an invalidation must
// be refused, even when the invalidated cells are unrelated to the entry.
func TestPutAbortsAcrossInvalidation(t *testing.T) {
	c := New(64)
	q := vec.Point{0.25, 0.75}
	epoch := c.Epoch()
	c.Invalidate([]int{12345}, nil)
	if c.Put(q, nncell.Neighbor{ID: 7, Dist2: 0.1}, epoch) {
		t.Fatal("Put accepted a fill from before the invalidation")
	}
	if _, ok := c.Get(q); ok {
		t.Fatal("aborted fill is visible")
	}
	st := c.Stats()
	if st.FillAborts != 1 || st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("stats after aborted fill: %+v", st)
	}
	if c.Put(q, nncell.Neighbor{ID: 7, Dist2: 0.1}, c.Epoch()) != true {
		t.Fatal("fresh-epoch Put refused")
	}
	if nb, ok := c.Get(q); !ok || nb.ID != 7 {
		t.Fatalf("Get after fill: %+v, %v", nb, ok)
	}
}

// Capacity is enforced by FIFO eviction per shard; evicted entries simply
// miss (and answers stay exact because misses recompute).
func TestCacheEviction(t *testing.T) {
	const capacity = 32
	c := New(capacity)
	rng := rand.New(rand.NewSource(74))
	epoch := c.Epoch()
	for i := 0; i < 40*capacity; i++ {
		c.Put(randPoint(rng, 2), nncell.Neighbor{ID: i, Dist2: 0.5}, epoch)
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

// recordingInner wraps an Inner and records which query entry points the
// Front actually uses, proving the batch path forwards misses to the inner
// CONCURRENT batch call instead of serializing them through the scalar one.
type recordingInner struct {
	Inner
	mu           sync.Mutex
	scalarCalls  int
	batchCalls   int
	batchLens    []int
	batchWorkers []int
}

func (r *recordingInner) NearestNeighbor(q vec.Point) (nncell.Neighbor, error) {
	r.mu.Lock()
	r.scalarCalls++
	r.mu.Unlock()
	return r.Inner.NearestNeighbor(q)
}

func (r *recordingInner) NearestNeighborBatch(qs []vec.Point, workers int) ([]nncell.Neighbor, error) {
	r.mu.Lock()
	r.batchCalls++
	r.batchLens = append(r.batchLens, len(qs))
	r.batchWorkers = append(r.batchWorkers, workers)
	r.mu.Unlock()
	return r.Inner.NearestNeighborBatch(qs, workers)
}

// The batch satellite's equivalence half: a cached batch must answer
// positionally, byte-identical to the scalar cached path and to the oracle,
// across repeats (cache hits), fresh queries (misses), and interleaved
// mutations.
func TestFrontBatchMatchesScalar(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(91))
	ix := buildSerial(t, rng, 150, d, nncell.Options{Algorithm: nncell.Sphere})
	m := model{}
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m[id] = p
	}
	front := NewFront(ix, 1024)

	pool := make([]vec.Point, 24)
	for i := range pool {
		pool[i] = randPoint(rng, d)
	}
	for round := 0; round < 12; round++ {
		qs := make([]vec.Point, 0, 16)
		for i := 0; i < 16; i++ {
			if i%2 == 0 {
				qs = append(qs, pool[rng.Intn(len(pool))]) // repeats: cache hits
			} else {
				qs = append(qs, randPoint(rng, d)) // fresh: misses
			}
		}
		got, err := front.NearestNeighborBatch(qs, 4)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(qs) {
			t.Fatalf("round %d: %d answers for %d queries", round, len(got), len(qs))
		}
		for i, q := range qs {
			want := m.nearest(q)
			if got[i] != want {
				t.Fatalf("round %d query %d: batch answered %+v, oracle %+v", round, i, got[i], want)
			}
			scalar, err := front.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			if scalar != got[i] {
				t.Fatalf("round %d query %d: scalar %+v != batch %+v", round, i, scalar, got[i])
			}
		}
		// Interleave mutations so later rounds exercise invalidation through
		// the batch path too.
		p := randPoint(rng, d)
		id, err := front.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		m[id] = p
		for victim := range m {
			if err := front.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(m, victim)
			break
		}
	}
}

// The batch satellite's forwarding half: hits are answered from the cache
// without touching the index, and ALL misses travel in one call to the
// inner batch entry point carrying the caller's workers value — not through
// the scalar path one by one (the seed bug).
func TestFrontBatchForwardsMissesToInnerBatch(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(92))
	ix := buildSerial(t, rng, 80, d, nncell.Options{Algorithm: nncell.Sphere})
	rec := &recordingInner{Inner: ix}
	front := NewFront(rec, 1024)

	warm := make([]vec.Point, 5)
	for i := range warm {
		warm[i] = randPoint(rng, d)
		if _, err := front.NearestNeighbor(warm[i]); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	rec.scalarCalls, rec.batchCalls = 0, 0
	rec.mu.Unlock()

	qs := append([]vec.Point{}, warm...) // 5 hits
	for i := 0; i < 7; i++ {
		qs = append(qs, randPoint(rng, d)) // 7 misses
	}
	if _, err := front.NearestNeighborBatch(qs, 3); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.scalarCalls != 0 {
		t.Errorf("batch used the scalar inner path %d times, want 0", rec.scalarCalls)
	}
	if rec.batchCalls != 1 || len(rec.batchLens) != 1 || rec.batchLens[0] != 7 {
		t.Errorf("inner batch calls %d with lens %v, want one call with 7 misses", rec.batchCalls, rec.batchLens)
	}
	if rec.batchWorkers[0] != 3 {
		t.Errorf("inner batch workers = %d, want the caller's 3", rec.batchWorkers[0])
	}

	// An all-hit batch must not touch the index at all.
	rec.batchCalls = 0
	rec.mu.Unlock()
	if _, err := front.NearestNeighborBatch(warm, 2); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	if rec.batchCalls != 0 || rec.scalarCalls != 0 {
		t.Errorf("all-hit batch reached the index (scalar=%d batch=%d)", rec.scalarCalls, rec.batchCalls)
	}
}
