// Package pager simulates the paged secondary storage underneath every index
// structure in this repository. The paper's experiments run all structures
// with the same block size (4 KBytes) and the same amount of cache, and report
// page accesses separately from CPU time; this package reproduces that
// accounting model.
//
// Nodes live in Go memory — the pager is the bookkeeping layer that decides,
// for every logical page access, whether it would have been a cache hit or a
// physical disk read, using an LRU cache with a fixed page budget. A
// configurable DiskModel converts miss counts into estimated I/O time so that
// "total search time" can be reported the way the paper does (Fig. 7/10/11),
// on hardware where the actual disk no longer dominates.
//
// Page ids are dense (Alloc hands out 1, 2, 3, … and never reuses one), so all
// per-page state lives in one slice indexed by PageID: a live bit, a cached
// bit and the prev/next links of an intrusive LRU ring threaded through the
// same slice, with the never-allocated page 0 as the ring's sentinel. Access,
// AccessRun and Write touch no map and allocate nothing, on the hit path and
// on the miss-with-eviction path alike; only Alloc grows the slice.
//
// Concurrency: a single global mutex guards the LRU and the counters, so page
// accounting from concurrent queries is fully serialized. The critical
// section is a few loads and stores into the slot slice (BenchmarkAccessHit,
// BenchmarkAccessSerial for the miss-with-eviction path), which caps
// aggregate accounting throughput regardless of how many query goroutines
// run; BenchmarkAccessParallel shows no speedup over the serial baseline.
// That ceiling sits far above the query engine's page-access rate today, so
// the lock is not the serving bottleneck; if it becomes one, shard the cache
// by PageID with a per-shard LRU budget (see DESIGN.md §9).
package pager

import (
	"fmt"
	"sync"
	"time"
)

// PageID identifies a simulated disk page. The zero value is never allocated
// and can be used as a sentinel.
type PageID uint64

// DefaultPageSize is the paper's experimental block size (4 KBytes).
const DefaultPageSize = 4096

// Config controls a Pager instance.
type Config struct {
	// PageSize is the block size in bytes. Defaults to DefaultPageSize.
	PageSize int
	// CachePages is the LRU budget in pages. Zero means no cache: every
	// access is a miss.
	CachePages int
}

// Stats is a snapshot of the access counters.
type Stats struct {
	// Accesses counts logical page reads.
	Accesses uint64
	// Hits and Misses partition Accesses by cache outcome.
	Hits, Misses uint64
	// Writes counts page writes (write-through; a write also caches the page).
	Writes uint64
	// Allocs and Frees count page lifetime events.
	Allocs, Frees uint64
}

// DiskModel converts page-level counters into estimated I/O time. The default
// reflects the paper-era random-access disk (about 8 ms per random page read).
type DiskModel struct {
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// DefaultDiskModel is an HP-720-era disk: 8 ms random read, 10 ms write.
var DefaultDiskModel = DiskModel{ReadLatency: 8 * time.Millisecond, WriteLatency: 10 * time.Millisecond}

// IOTime estimates the physical I/O time implied by the counters.
func (m DiskModel) IOTime(s Stats) time.Duration {
	return time.Duration(s.Misses)*m.ReadLatency + time.Duration(s.Writes)*m.WriteLatency
}

// Pager is a simulated paged store with an LRU cache. It is safe for
// concurrent use.
type Pager struct {
	mu       sync.Mutex
	pageSize int
	cacheCap int
	slots    []slot // indexed by PageID; slots[0] is the LRU ring's sentinel
	cached   int    // pages on the ring
	live     int    // allocated, unfreed pages
	stats    Stats
}

// slot is the per-page state. A cached page is linked into the LRU ring:
// slots[0].next is the most recently used page, slots[0].prev the eviction
// victim, and an empty ring has the sentinel pointing at itself (the zero
// value of slots[0]).
type slot struct {
	prev, next   PageID
	live, cached bool
}

// New returns a Pager with the given configuration.
func New(cfg Config) *Pager {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.CachePages < 0 {
		cfg.CachePages = 0
	}
	return &Pager{
		pageSize: cfg.PageSize,
		cacheCap: cfg.CachePages,
		slots:    make([]slot, 1),
	}
}

// PageSize returns the configured block size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// CachePages returns the configured cache budget in pages.
func (p *Pager) CachePages() int { return p.cacheCap }

// Alloc reserves a new page and returns its id. Freshly allocated pages are
// not cached; the first Access after Alloc without an intervening Write is a
// miss, matching a build that writes pages out as it goes.
func (p *Pager) Alloc() PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID(len(p.slots))
	p.slots = append(p.slots, slot{live: true})
	p.live++
	p.stats.Allocs++
	return id
}

// AllocRun reserves n consecutive pages (an X-tree supernode) and returns
// their ids.
func (p *Pager) AllocRun(n int) []PageID {
	ids := make([]PageID, n)
	for i := range ids {
		ids[i] = p.Alloc()
	}
	return ids
}

// Free releases a page and drops it from the cache. Freeing an unknown page
// panics: it indicates index-structure corruption, not a runtime condition.
func (p *Pager) Free(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.isLive(id) {
		panic(fmt.Sprintf("pager: Free of non-live page %d", id))
	}
	if p.slots[id].cached {
		p.unlink(id)
	}
	p.slots[id].live = false
	p.live--
	p.stats.Frees++
}

// Access records a logical read of the page and reports whether it was a
// cache hit. Accessing a non-live page panics.
func (p *Pager) Access(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accessLocked(id)
}

// AccessRun records reads of all pages of a multi-page node.
func (p *Pager) AccessRun(ids []PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		p.accessLocked(id)
	}
}

func (p *Pager) accessLocked(id PageID) bool {
	if !p.isLive(id) {
		panic(fmt.Sprintf("pager: Access of non-live page %d", id))
	}
	p.stats.Accesses++
	hit := p.slots[id].cached
	if hit {
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	p.touch(id)
	return hit
}

// Write records a write-through page write and caches the page.
func (p *Pager) Write(id PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.isLive(id) {
		panic(fmt.Sprintf("pager: Write of non-live page %d", id))
	}
	p.stats.Writes++
	p.touch(id)
}

func (p *Pager) isLive(id PageID) bool {
	return id < PageID(len(p.slots)) && p.slots[id].live
}

// touch makes id the most recently used cached page, evicting the least
// recently used one when that takes the ring past the budget.
func (p *Pager) touch(id PageID) {
	if p.cacheCap == 0 {
		return
	}
	s := p.slots
	if s[id].cached {
		p.unlink(id)
	} else if p.cached == p.cacheCap {
		p.unlink(s[0].prev)
	}
	front := s[0].next
	s[id].prev, s[id].next, s[id].cached = 0, front, true
	s[front].prev = id
	s[0].next = id
	p.cached++
}

// unlink takes a cached page off the ring.
func (p *Pager) unlink(id PageID) {
	s := p.slots
	s[s[id].prev].next = s[id].next
	s[s[id].next].prev = s[id].prev
	s[id].cached = false
	p.cached--
}

// DropCache empties the LRU, simulating a cold start. Counters are preserved.
func (p *Pager) DropCache() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.cached > 0 {
		p.unlink(p.slots[0].prev)
	}
}

// Stats returns a snapshot of the counters.
func (p *Pager) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ResetStats zeroes the counters (the cache content is kept). Use between the
// build phase and the measured query phase of an experiment.
func (p *Pager) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// LivePages returns the number of allocated, unfreed pages (index size on
// disk in pages).
func (p *Pager) LivePages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Capacity returns how many fixed-size entries of entryBytes fit on one page,
// at least 1. Index structures use it to derive their fanout from the block
// size the way a disk-resident implementation would.
func (p *Pager) Capacity(entryBytes int) int {
	if entryBytes <= 0 {
		panic("pager: non-positive entry size")
	}
	c := p.pageSize / entryBytes
	if c < 1 {
		c = 1
	}
	return c
}
