package rescache

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/shard"
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
// answer. Guarded by mu where tests mutate concurrently.
type model struct {
	mu   sync.Mutex
	live map[int]vec.Point
}

func newModel() *model { return &model{live: make(map[int]vec.Point)} }

// nearest is the brute-force oracle: lowest id wins ties, matching the
// index's deterministic tie-break.
func (m *model) nearest(q vec.Point) nncell.Neighbor {
	metric := vec.Euclidean{}
	best := nncell.Neighbor{ID: -1, Dist2: math.Inf(1)}
	for id, p := range m.live {
		d2 := metric.Dist2(q, p)
		if d2 < best.Dist2 || (d2 == best.Dist2 && id < best.ID) {
			best = nncell.Neighbor{ID: id, Dist2: d2}
		}
	}
	return best
}

// A cached answer must be byte-identical to the uncached answer of the same
// index, and both must name the oracle's point. Exercised across a serial
// index under interleaved mutations: the query pool repeats, so later
// rounds are answered from the cache and would surface any missed
// invalidation.
func TestFrontExactUnderMutationSerial(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(71))
	ix := buildSerial(t, rng, 120, d, nncell.Options{Algorithm: nncell.Sphere})
	m := newModel()
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m.live[id] = p
	}
	front := NewFront(ix, 1024)

	pool := make([]vec.Point, 32)
	for i := range pool {
		pool[i] = randPoint(rng, d)
	}
	check := func(round int) {
		for qi, q := range pool {
			got, err := front.NearestNeighbor(q)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, qi, err)
			}
			raw, err := ix.NearestNeighbor(q)
			if err != nil {
				t.Fatalf("round %d query %d uncached: %v", round, qi, err)
			}
			if got != raw {
				t.Fatalf("round %d query %d: cached %+v != uncached %+v", round, qi, got, raw)
			}
			if want := m.nearest(q); got.ID != want.ID {
				t.Fatalf("round %d query %d: id %d, oracle %d", round, qi, got.ID, want.ID)
			}
		}
	}
	check(0)
	for round := 1; round <= 25; round++ {
		switch round % 4 {
		case 0: // batch insert
			ps := []vec.Point{randPoint(rng, d), randPoint(rng, d)}
			ids, err := front.InsertBatch(ps)
			if err != nil {
				t.Fatal(err)
			}
			for k, id := range ids {
				m.live[id] = ps[k]
			}
		case 1, 2: // single insert
			p := randPoint(rng, d)
			id, err := front.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			m.live[id] = p
		case 3: // delete a random live point
			for id := range m.live {
				if err := front.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(m.live, id)
				break
			}
		}
		check(round)
	}
	st := front.Cache().Stats()
	if st.Hits == 0 {
		t.Error("pool queries never hit the cache")
	}
	if st.Invalidations == 0 {
		t.Error("mutations never invalidated")
	}
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
	m := newModel()
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m.live[id] = p
	}

	q := randPoint(rng, d)
	before, err := front.NearestNeighbor(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Delete(before.ID); err != nil {
		t.Fatal(err)
	}
	delete(m.live, before.ID)
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

// The make-check coherence gate: concurrent readers over a zipfian-hot pool
// (so most lookups are cache hits) race against writers doing single and
// batch inserts/deletes on a sharded, lazy-repair index — the full
// invalidation surface (per-shard hooks, batch-union invalidation, repair
// commits). During churn answers must only be well-formed; after the
// writers quiesce and repairs drain, every pool query's cached answer must
// be byte-identical to the uncached answer and match the brute-force oracle
// of the surviving point set.
func TestCacheCoherenceChurn(t *testing.T) {
	const (
		d       = 4
		shards  = 4
		n       = 400
		writers = 3
		readers = 4
	)
	rng := rand.New(rand.NewSource(75))
	pts := make([]vec.Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, d)
	}
	sh, err := shard.Build(pts, vec.UnitCube(d), shard.Options{
		Shards: shards,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.Sphere, LazyRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newModel()
	for _, id := range sh.IDs() {
		p, _ := sh.Point(id)
		m.live[id] = p
	}
	front := NewFront(sh, 4096)

	pool := make([]vec.Point, 64)
	for i := range pool {
		pool[i] = randPoint(rng, d)
	}

	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				// The model lock spans each mutation so the mirror never
				// diverges; writers serialize against each other but not
				// against the readers, which is the race under test.
				m.mu.Lock()
				switch wrng.Intn(5) {
				case 0: // batch insert
					ps := []vec.Point{randPoint(wrng, d), randPoint(wrng, d), randPoint(wrng, d)}
					ids, err := front.InsertBatch(ps)
					if err != nil {
						t.Errorf("insert batch: %v", err)
					} else {
						for k, id := range ids {
							m.live[id] = ps[k]
						}
					}
				case 1, 2: // single insert
					p := randPoint(wrng, d)
					id, err := front.Insert(p)
					if err != nil {
						t.Errorf("insert: %v", err)
					} else {
						m.live[id] = p
					}
				default: // delete, keeping a floor of live points
					if len(m.live) > n/2 {
						for id := range m.live {
							if err := front.Delete(id); err != nil {
								t.Errorf("delete %d: %v", id, err)
							} else {
								delete(m.live, id)
							}
							break
						}
					}
				}
				m.mu.Unlock()
			}
		}(int64(76 + w))
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := pool[rrng.Intn(len(pool))]
				nb, err := front.NearestNeighbor(q)
				if err != nil {
					t.Errorf("query during churn: %v", err)
					return
				}
				if nb.ID < 0 || nb.Dist2 < 0 {
					t.Errorf("malformed answer during churn: %+v", nb)
					return
				}
			}
		}(int64(90 + r))
	}
	// Writers finish, then the readers are stopped and repairs drained.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	sh.RepairWait()

	for qi, q := range pool {
		cached, err := front.NearestNeighbor(q)
		if err != nil {
			t.Fatalf("query %d after quiesce: %v", qi, err)
		}
		raw, err := sh.NearestNeighbor(q)
		if err != nil {
			t.Fatalf("query %d uncached: %v", qi, err)
		}
		if cached != raw {
			t.Fatalf("query %d: cached %+v != uncached %+v", qi, cached, raw)
		}
		if want := m.nearest(q); cached.ID != want.ID {
			t.Fatalf("query %d: id %d, oracle %d", qi, cached.ID, want.ID)
		}
	}
	st := front.Cache().Stats()
	if st.Hits == 0 {
		t.Error("hot pool never hit the cache")
	}
	if st.Invalidations == 0 {
		t.Error("churn never invalidated")
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
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
	m := newModel()
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m.live[id] = p
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
		m.live[id] = p
		for victim := range m.live {
			if err := front.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(m.live, victim)
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

// The batch satellite's concurrency half: batches racing mutations must
// stay error-free and coherent (every answer matches the oracle once the
// writers quiesce); run under -race via make race.
func TestFrontBatchConcurrentChurn(t *testing.T) {
	const d = 3
	rng := rand.New(rand.NewSource(93))
	ix := buildSerial(t, rng, 200, d, nncell.Options{Algorithm: nncell.Sphere})
	m := newModel()
	for _, id := range ix.IDs() {
		p, _ := ix.Point(id)
		m.live[id] = p
	}
	front := NewFront(ix, 2048)

	pool := make([]vec.Point, 32)
	for i := range pool {
		pool[i] = randPoint(rng, d)
	}
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				qs := make([]vec.Point, 8)
				for i := range qs {
					qs[i] = pool[rrng.Intn(len(pool))]
				}
				if _, err := front.NearestNeighborBatch(qs, 2); err != nil {
					t.Errorf("concurrent batch: %v", err)
					return
				}
			}
		}(int64(100 + r))
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				m.mu.Lock()
				p := randPoint(wrng, d)
				id, err := front.Insert(p)
				if err == nil {
					m.live[id] = p
				}
				for victim := range m.live {
					if wrng.Intn(2) == 0 {
						if err := front.Delete(victim); err == nil {
							delete(m.live, victim)
						}
					}
					break
				}
				m.mu.Unlock()
			}
		}(int64(200 + w))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Quiesced equivalence sweep: repeats hit the cache, so this would
	// surface any fill that slipped past an invalidation during the race.
	for _, q := range pool {
		want := m.nearest(q)
		got, err := front.NearestNeighborBatch([]vec.Point{q}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("post-churn query %v: %+v, oracle %+v", q, got[0], want)
		}
	}
}
