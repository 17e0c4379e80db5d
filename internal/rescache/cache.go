// Package rescache is an exact nearest-neighbor result cache exploiting the
// paper's central structural property: the NN answer is piecewise-constant
// over the first-order Voronoi cells. A repeated query point therefore has a
// *provably identical* answer until a mutation moves the boundary of the
// cell it falls in — so memoizing (query → Neighbor) is exact, never
// approximate, provided invalidation covers every query whose containing
// cell changed.
//
// # Keying
//
// Entries are keyed by the query point's raw float64 bit patterns (FNV-1a
// over the bits, full-key compare on lookup) — the same byte-exact key
// discipline nncell uses for duplicate detection. Keying by the point rather
// than by the stored rectangle it falls in is what keeps the cache exact:
// stored MBRs are supersets of the true cells and overlap each other, so two
// queries in the same MBR can have different answers, but two queries with
// the same bits always have the same answer.
//
// # Invalidation
//
// Each entry is indexed by the id of its answer point (equivalently, the
// cell the query provably lies in — q's NN is x iff q ∈ cell(x)). The index
// layers (nncell.Index, shard.Sharded) call Invalidate at commit time,
// under the index's write lock, with the mutation's touched-cell set AND
// the coordinates of any inserted points. Invalidate drops every entry
// whose answer cell is in the set, and every entry an inserted point beats
// on distance. That is sufficient, and each mutation kind leans on one of
// the two signals:
//
//   - Insert of x: the answer is argmin over stored points, and an insert
//     changes nothing about existing points — so a cached (q → P) goes
//     stale iff dist²(x, q) ≤ dist²(P, q), the entry's stored distance.
//     Invalidate evaluates exactly this predicate against every entry
//     (ties swept conservatively: the index breaks ties by id, and id
//     order between x and P is not the cache's business). The cell-id
//     signal alone would NOT suffice here: against a sharded index the
//     affected-cell set is local to the one shard that received x, while
//     the cached answer may live in any shard — the distance predicate is
//     shard-agnostic.
//   - Delete of x: a cached query q goes stale iff its answer was x, and
//     every entry indexed under x is dropped because x's own id is always
//     in the touched-cell set (for the sharded index, translated to the
//     global id the cache indexed the fill under).
//   - Batch mutations invalidate once per batch (union of touched cells,
//     all inserted points); lazy-repair commits invalidate the repaired
//     cell (conservative — a repair moves no true cell boundary — but
//     keeps the invariant simple: no entry survives a change to the
//     rectangles it was computed against).
//
// Only k = 1 answers are cached. Higher-order answers (k-NN lists) change
// when the k-th-place order statistic moves, which neither per-entry signal
// bounds, so the cache never memoizes them.
//
// # No staleness window
//
// Hooks run at the commit point, inside the index's write lock, so
// Invalidate completes before the mutation is acknowledged. A concurrent
// Get can therefore return the pre-mutation answer only while the mutation
// is still in flight — a linearizable outcome (the read ordered before the
// write), not staleness. The remaining hazard is a racing fill: a miss
// computes its answer, a mutation commits and invalidates, and the fill
// lands afterwards, re-inserting a stale answer. Two mechanisms close it:
//
//   - Epoch guard: every Invalidate bumps a global epoch before touching
//     any shard. Fills capture the epoch before computing and Put refuses
//     (counted as a fill abort) if the epoch has moved — under the shard
//     lock, so a bump-after-check interleaving means the sweep runs after
//     the insert and finds the entry in place.
//   - The sweep itself: even a fill that lands mid-sweep is subject to the
//     same predicates the sweep applies — an insert-beaten answer is found
//     by the distance scan, a deleted answer by its cell id — so the sweep
//     that follows the bump removes it.
//
// # Structure
//
// The cache is split into 16 shards by key hash; each shard is a fixed-size
// FIFO ring protected by a mutex (lookups take one shard lock for a map
// probe and a key compare — cheap relative to even a cached-away LP-free
// tree descent, and uncontended across shards). Capacity is enforced per
// shard; eviction is oldest-slot-first.
package rescache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/nncell"
	"repro/internal/vec"
)

const shardCount = 16 // power of two; shard = hash & (shardCount-1)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits               uint64 // lookups answered from the cache
	Misses             uint64 // lookups that fell through to the index
	Puts               uint64 // successful fills
	FillAborts         uint64 // fills dropped by the epoch guard
	Evictions          uint64 // entries displaced by capacity
	InvalidatedEntries uint64 // entries dropped by Invalidate
	Invalidations      uint64 // Invalidate batches (≈ committed mutations)
	Entries            int    // current live entries
	Epoch              uint64 // current invalidation epoch
}

// entry is one memoized answer. A slot with key == nil is free.
type entry struct {
	hash uint64
	key  []float64 // the query point's coordinates, owned by the cache
	nb   nncell.Neighbor
}

// cacheShard is one lock domain: a FIFO ring of slots, a hash → slot index,
// and the answer-cell → slots invalidation index.
type cacheShard struct {
	mu     sync.Mutex
	slots  []entry
	next   int            // ring clock: next slot to fill/evict
	byHash map[uint64]int // hash → slot (full-key compare on read)
	byCell map[int][]int  // answer point id → slots holding it
}

// Cache is a sharded, epoch-guarded exact NN result cache. The zero value
// is not usable; construct with New. All methods are safe for concurrent
// use, and Invalidate may be called from mutation hooks of multiple index
// shards at once.
type Cache struct {
	epoch  atomic.Uint64
	shards [shardCount]cacheShard

	hits, misses, puts    atomic.Uint64
	fillAborts, evictions atomic.Uint64
	invalidatedEntries    atomic.Uint64
	invalidationBatches   atomic.Uint64
	entries               atomic.Int64
}

// DefaultCapacity is the entry budget used when New is given a
// non-positive capacity.
const DefaultCapacity = 1 << 16

// New returns a cache holding up to capacity entries (rounded up to a
// multiple of the internal shard count; capacity <= 0 means
// DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + shardCount - 1) / shardCount
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].slots = make([]entry, per)
		c.shards[i].byHash = make(map[uint64]int, per)
		c.shards[i].byCell = make(map[int][]int)
	}
	return c
}

// hashPoint is FNV-1a over the query's float64 bit patterns — the byte-exact
// key discipline of the index layers (two points are the same key iff every
// coordinate has identical bits).
func hashPoint(q vec.Point) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range q {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

func sameKey(key []float64, q vec.Point) bool {
	if len(key) != len(q) {
		return false
	}
	for i := range key {
		if math.Float64bits(key[i]) != math.Float64bits(q[i]) {
			return false
		}
	}
	return true
}

// Epoch returns the current invalidation epoch. Fills must capture it
// BEFORE computing the answer they intend to Put: any answer computed after
// the capture reflects every mutation committed up to it (hooks run before
// mutation acknowledge), and any mutation after the capture bumps the epoch
// and makes the Put abort.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Get returns the memoized answer for q, if present.
func (c *Cache) Get(q vec.Point) (nncell.Neighbor, bool) {
	h := hashPoint(q)
	sh := &c.shards[h&(shardCount-1)]
	sh.mu.Lock()
	if slot, ok := sh.byHash[h]; ok {
		if e := &sh.slots[slot]; e.key != nil && e.hash == h && sameKey(e.key, q) {
			nb := e.nb
			sh.mu.Unlock()
			c.hits.Add(1)
			return nb, true
		}
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nncell.Neighbor{}, false
}

// Put memoizes (q → nb) if no invalidation has run since the caller
// captured epoch (see Epoch). It reports whether the fill was accepted.
func (c *Cache) Put(q vec.Point, nb nncell.Neighbor, epoch uint64) bool {
	h := hashPoint(q)
	sh := &c.shards[h&(shardCount-1)]
	sh.mu.Lock()
	// The guard must hold the shard lock: if an Invalidate bumps the epoch
	// after this check, its sweep of this shard is still ahead of it and
	// runs after our insert — and removes it if the answer went stale.
	if c.epoch.Load() != epoch {
		sh.mu.Unlock()
		c.fillAborts.Add(1)
		return false
	}
	if slot, ok := sh.byHash[h]; ok && sh.slots[slot].key != nil {
		// Same hash present: replace in place (same key re-filled after an
		// invalidation, or a hash collision — either way the old entry goes).
		e := &sh.slots[slot]
		sh.dropCellRef(e.nb.ID, slot)
		e.key = append(e.key[:0], q...)
		e.nb = nb
		sh.byCell[nb.ID] = append(sh.byCell[nb.ID], slot)
		sh.mu.Unlock()
		c.puts.Add(1)
		return true
	}
	slot := sh.next
	sh.next = (sh.next + 1) % len(sh.slots)
	e := &sh.slots[slot]
	if e.key != nil {
		delete(sh.byHash, e.hash)
		sh.dropCellRef(e.nb.ID, slot)
		c.evictions.Add(1)
		c.entries.Add(-1)
	}
	e.hash = h
	e.key = append(e.key[:0], q...)
	e.nb = nb
	sh.byHash[h] = slot
	sh.byCell[nb.ID] = append(sh.byCell[nb.ID], slot)
	sh.mu.Unlock()
	c.entries.Add(1)
	c.puts.Add(1)
	return true
}

// dropCellRef removes slot from the cell's invalidation list. Caller holds
// sh.mu; the (cell, slot) pair is present by the shard invariant (every
// occupied slot has exactly one byCell reference, under its answer id).
func (sh *cacheShard) dropCellRef(cell, slot int) {
	refs := sh.byCell[cell]
	for i, s := range refs {
		if s == slot {
			refs[i] = refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			break
		}
	}
	if len(refs) == 0 {
		delete(sh.byCell, cell)
	} else {
		sh.byCell[cell] = refs
	}
}

// Invalidate drops every entry whose answer cell is in cells, plus every
// entry whose memoized answer an added point beats on distance, and bumps
// the epoch (before any sweep — see the package comment's fill-race
// argument). Index layers call this from their commit-time mutation hooks;
// it tolerates ids nothing is cached under (the common case for most of an
// affected set). The distance pass is a full scan of the occupied slots —
// O(capacity · d) per mutation batch, the price of exactness under writes;
// the cell pass stays O(|cells|) map probes.
func (c *Cache) Invalidate(cells []int, added []vec.Point) {
	if len(cells) == 0 && len(added) == 0 {
		return
	}
	c.epoch.Add(1)
	c.invalidationBatches.Add(1)
	removed := 0
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		for _, cell := range cells {
			refs, ok := sh.byCell[cell]
			if !ok {
				continue
			}
			for _, slot := range refs {
				e := &sh.slots[slot]
				delete(sh.byHash, e.hash)
				e.key = nil
				removed++
			}
			delete(sh.byCell, cell)
		}
		if len(added) > 0 {
			for slot := range sh.slots {
				e := &sh.slots[slot]
				if e.key == nil {
					continue
				}
				for _, p := range added {
					if (vec.Euclidean{}).Dist2(p, vec.Point(e.key)) <= e.nb.Dist2 {
						delete(sh.byHash, e.hash)
						sh.dropCellRef(e.nb.ID, slot)
						e.key = nil
						removed++
						break
					}
				}
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		c.invalidatedEntries.Add(uint64(removed))
		c.entries.Add(-int64(removed))
	}
}

// Len returns the current number of live entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Puts:               c.puts.Load(),
		FillAborts:         c.fillAborts.Load(),
		Evictions:          c.evictions.Load(),
		InvalidatedEntries: c.invalidatedEntries.Load(),
		Invalidations:      c.invalidationBatches.Load(),
		Entries:            int(c.entries.Load()),
		Epoch:              c.epoch.Load(),
	}
}
