package pager

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.PageSize() != DefaultPageSize {
		t.Errorf("PageSize = %d, want %d", p.PageSize(), DefaultPageSize)
	}
	if p.CachePages() != 0 {
		t.Errorf("CachePages = %d, want 0", p.CachePages())
	}
	p = New(Config{PageSize: 8192, CachePages: -5})
	if p.PageSize() != 8192 || p.CachePages() != 0 {
		t.Errorf("config not normalized: %d/%d", p.PageSize(), p.CachePages())
	}
}

func TestAllocAccessFree(t *testing.T) {
	p := New(Config{CachePages: 2})
	a := p.Alloc()
	b := p.Alloc()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("bad ids: %d, %d", a, b)
	}
	if hit := p.Access(a); hit {
		t.Error("first access was a hit")
	}
	if hit := p.Access(a); !hit {
		t.Error("second access was a miss")
	}
	p.Free(a)
	s := p.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Allocs != 2 || s.Frees != 1 {
		t.Errorf("stats = %+v", s)
	}
	if p.LivePages() != 1 {
		t.Errorf("LivePages = %d, want 1", p.LivePages())
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(Config{CachePages: 2})
	a, b, c := p.Alloc(), p.Alloc(), p.Alloc()
	p.Access(a) // cache: [a]
	p.Access(b) // cache: [b a]
	p.Access(a) // cache: [a b]
	p.Access(c) // evicts b; cache: [c a]
	if hit := p.Access(b); hit {
		t.Error("evicted page b reported as hit")
	}
	// b's re-access evicted a (LRU order was [b c a] -> trim a).
	if hit := p.Access(c); !hit {
		t.Error("c should still be cached")
	}
	if hit := p.Access(a); hit {
		t.Error("a should have been evicted")
	}
}

func TestZeroCacheAlwaysMisses(t *testing.T) {
	p := New(Config{CachePages: 0})
	id := p.Alloc()
	for i := 0; i < 5; i++ {
		if p.Access(id) {
			t.Fatal("hit with zero cache")
		}
	}
	if s := p.Stats(); s.Misses != 5 {
		t.Errorf("misses = %d, want 5", s.Misses)
	}
}

func TestWriteCaches(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Write(id)
	if !p.Access(id) {
		t.Error("access after write was a miss")
	}
	s := p.Stats()
	if s.Writes != 1 {
		t.Errorf("writes = %d, want 1", s.Writes)
	}
}

func TestDropCache(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Access(id)
	p.DropCache()
	if p.Access(id) {
		t.Error("hit after DropCache")
	}
}

func TestResetStatsKeepsCache(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Access(id)
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Errorf("stats not zeroed: %+v", s)
	}
	if !p.Access(id) {
		t.Error("cache content lost by ResetStats")
	}
}

func TestAllocRunAndAccessRun(t *testing.T) {
	p := New(Config{CachePages: 10})
	ids := p.AllocRun(3)
	if len(ids) != 3 || ids[0] == ids[1] {
		t.Fatalf("AllocRun = %v", ids)
	}
	p.AccessRun(ids)
	if s := p.Stats(); s.Accesses != 3 || s.Misses != 3 {
		t.Errorf("stats = %+v", s)
	}
	p.AccessRun(ids)
	if s := p.Stats(); s.Hits != 3 {
		t.Errorf("stats after rerun = %+v", s)
	}
}

func TestFreeDropsFromCache(t *testing.T) {
	p := New(Config{CachePages: 4})
	id := p.Alloc()
	p.Access(id)
	p.Free(id)
	id2 := p.Alloc()
	_ = id2
	defer func() {
		if recover() == nil {
			t.Error("access of freed page did not panic")
		}
	}()
	p.Access(id)
}

func TestFreeUnknownPanics(t *testing.T) {
	p := New(Config{})
	defer func() {
		if recover() == nil {
			t.Error("Free of unknown page did not panic")
		}
	}()
	p.Free(42)
}

func TestCapacity(t *testing.T) {
	p := New(Config{PageSize: 4096})
	if got := p.Capacity(136); got != 30 {
		t.Errorf("Capacity(136) = %d, want 30", got)
	}
	if got := p.Capacity(10000); got != 1 {
		t.Errorf("Capacity(huge) = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Capacity(0) did not panic")
		}
	}()
	p.Capacity(0)
}

func TestDiskModel(t *testing.T) {
	s := Stats{Misses: 10, Writes: 2}
	got := DefaultDiskModel.IOTime(s)
	want := 10*8*time.Millisecond + 2*10*time.Millisecond
	if got != want {
		t.Errorf("IOTime = %v, want %v", got, want)
	}
}

// Cache occupancy never exceeds the configured budget, and hits+misses always
// equals accesses — under arbitrary random workloads.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capPages := int(capRaw % 8)
		p := New(Config{CachePages: capPages})
		var ids []PageID
		for op := 0; op < 200; op++ {
			switch {
			case len(ids) == 0 || rng.Float64() < 0.3:
				ids = append(ids, p.Alloc())
			case rng.Float64() < 0.1:
				i := rng.Intn(len(ids))
				p.Free(ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			default:
				p.Access(ids[rng.Intn(len(ids))])
			}
			if p.cached > capPages {
				return false
			}
		}
		s := p.Stats()
		return s.Hits+s.Misses == s.Accesses && p.LivePages() == len(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refLRU is the list-of-ids LRU the dense-slice implementation replaced,
// written the obvious way: order[0] is the most recently used page.
type refLRU struct {
	cap   int
	order []PageID
	live  map[PageID]bool
	stats Stats
}

func (r *refLRU) remove(id PageID) bool {
	for i, have := range r.order {
		if have == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

// touch returns whether id was cached and, when the insert evicted a page,
// the victim.
func (r *refLRU) touch(id PageID) (hit bool, victim PageID) {
	hit = r.remove(id)
	if r.cap == 0 {
		return false, 0
	}
	r.order = append([]PageID{id}, r.order...)
	if len(r.order) > r.cap {
		victim = r.order[r.cap]
		r.order = r.order[:r.cap]
	}
	return hit, victim
}

func (r *refLRU) access(id PageID) bool {
	hit, _ := r.touch(id)
	r.stats.Accesses++
	if hit {
		r.stats.Hits++
	} else {
		r.stats.Misses++
	}
	return hit
}

// TestAgainstReferenceLRU drives random Alloc/Free/Access/AccessRun/Write/
// DropCache sequences through the pager and the reference side by side and
// compares, after every step, the hit/miss result, the counters, the live
// page count and the whole recency order (which pins the eviction victim).
func TestAgainstReferenceLRU(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capPages := rng.Intn(9) // 0 = no cache
		p := New(Config{CachePages: capPages})
		ref := &refLRU{cap: capPages, live: map[PageID]bool{}}
		var ids []PageID
		pick := func() PageID { return ids[rng.Intn(len(ids))] }
		for op := 0; op < 600; op++ {
			switch r := rng.Float64(); {
			case len(ids) == 0 || r < 0.15:
				id := p.Alloc()
				if id != PageID(ref.stats.Allocs)+1 {
					t.Fatalf("seed %d op %d: Alloc = %d, want %d", seed, op, id, ref.stats.Allocs+1)
				}
				ref.live[id] = true
				ref.stats.Allocs++
				ids = append(ids, id)
			case r < 0.25:
				i := rng.Intn(len(ids))
				p.Free(ids[i])
				ref.remove(ids[i])
				delete(ref.live, ids[i])
				ref.stats.Frees++
				ids = append(ids[:i], ids[i+1:]...)
			case r < 0.70:
				id := pick()
				if got, want := p.Access(id), ref.access(id); got != want {
					t.Fatalf("seed %d op %d: Access(%d) hit = %v, want %v", seed, op, id, got, want)
				}
			case r < 0.82:
				run := make([]PageID, 1+rng.Intn(4))
				for i := range run {
					run[i] = pick()
				}
				p.AccessRun(run)
				for _, id := range run {
					ref.access(id)
				}
			case r < 0.97:
				id := pick()
				p.Write(id)
				ref.touch(id)
				ref.stats.Writes++
			default:
				p.DropCache()
				ref.order = ref.order[:0]
			}
			if got := p.Stats(); got != ref.stats {
				t.Fatalf("seed %d op %d: stats = %+v, want %+v", seed, op, got, ref.stats)
			}
			if got := p.LivePages(); got != len(ref.live) {
				t.Fatalf("seed %d op %d: LivePages = %d, want %d", seed, op, got, len(ref.live))
			}
			var order []PageID
			for id := p.slots[0].next; id != 0; id = p.slots[id].next {
				order = append(order, id)
			}
			if len(order) != len(ref.order) || p.cached != len(order) {
				t.Fatalf("seed %d op %d: cached %v (count %d), want %v", seed, op, order, p.cached, ref.order)
			}
			for i := range order {
				if order[i] != ref.order[i] {
					t.Fatalf("seed %d op %d: recency order %v, want %v", seed, op, order, ref.order)
				}
			}
		}
	}
}

// TestAccessAllocs pins the miss-with-eviction path (a cyclic sweep over more
// pages than the cache holds misses and evicts on every access) to zero
// allocations.
func TestAccessAllocs(t *testing.T) {
	p := New(Config{CachePages: 4})
	ids := p.AllocRun(16)
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if p.Access(ids[k%len(ids)]) {
			t.Fatal("cyclic sweep hit")
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("Access on the eviction path allocates %v/op, want 0", allocs)
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(Config{CachePages: 16})
	ids := p.AllocRun(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				p.Access(ids[rng.Intn(len(ids))])
			}
		}(int64(w))
	}
	wg.Wait()
	if s := p.Stats(); s.Accesses != 8000 || s.Hits+s.Misses != 8000 {
		t.Errorf("stats = %+v", s)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	p := New(Config{CachePages: 1})
	id := p.Alloc()
	p.Access(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(id)
	}
}

// The serial/parallel pair below measures the cost of the pager's single
// global mutex under the serving layer's concurrent-query access pattern.
// The per-access critical section is a few loads and stores into the slot
// slice, so the lock is the scaling bottleneck: see the package doc comment
// and DESIGN.md §9 for measured numbers and the sharding plan.

func BenchmarkAccessSerial(b *testing.B) {
	p := New(Config{CachePages: 64})
	ids := p.AllocRun(256)
	for _, id := range ids {
		p.Access(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(ids[i%len(ids)])
	}
}

func BenchmarkAccessParallel(b *testing.B) {
	p := New(Config{CachePages: 64})
	ids := p.AllocRun(256)
	for _, id := range ids {
		p.Access(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p.Access(ids[i%len(ids)])
			i++
		}
	})
}
