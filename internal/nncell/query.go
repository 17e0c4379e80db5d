package nncell

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/par"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// Neighbor is one (k-)NN result: a point id and the squared distance.
type Neighbor struct {
	ID    int
	Dist2 float64
}

// Less is the order of every k-NN result list: ascending squared distance,
// ties toward the smaller id.
func (a Neighbor) Less(b Neighbor) bool {
	return a.Dist2 < b.Dist2 || (a.Dist2 == b.Dist2 && a.ID < b.ID)
}

// InsertTopK offers nb to h, the best (at most k) neighbors seen so far kept
// ascending under Less — h[len(h)-1] is the worst of them, the bound a full
// list prunes with — and reports whether nb was kept. nb goes in by insertion
// from the end: the list is short and an offer that is kept usually lands
// near the end. The single index's searches and the sharded merge select
// their results with it.
func InsertTopK(h []Neighbor, k int, nb Neighbor) ([]Neighbor, bool) {
	i := len(h)
	if i < k {
		h = append(h, nb)
	} else if i--; !nb.Less(h[i]) {
		return h, false
	}
	for ; i > 0 && nb.Less(h[i-1]); i-- {
		h[i] = h[i-1]
	}
	h[i] = nb
	return h, true
}

// QueryCtx is the reusable per-query scratch of the read path: the survivor
// bitset of the cell-directory point query, the directory scratch — the
// bitsets of the point directory's search and the list every query walks its
// candidates and their distances through, which holds as many entries as the
// fullest candidate set seen, not one per point — the traversal state of the
// paged cell tree, and the clamp buffer and result slot of the fallback. A
// warm context makes NearestNeighbor, NearestNeighborPaged, CandidatesAppend,
// KNearestAppend and the fallback path allocation-free. Contexts are pooled
// per index (acquireCtx/releaseCtx) for the public entry points and held per
// worker by NearestNeighborBatch. A QueryCtx is not safe for concurrent use.
type QueryCtx struct {
	surv       []uint64       // cell-directory survivors, one bit per point id
	dirScratch                // point-directory search (nearestK), seen starting as the survivors; every fold's candidate list; the rows every directory pass gathers
	tc         xtree.QueryCtx // cell-tree traversal scratch (NearestNeighborPaged)
	clamp      vec.Point      // clamp-to-bounds buffer of out-of-bounds queries
	one        [1]Neighbor    // result slot of the fallback's k = 1 search
}

// acquireCtx takes a context from the index's pool (allocating only when the
// pool is empty, i.e. on cold paths).
func (ix *Index) acquireCtx() *QueryCtx {
	if qc, ok := ix.ctxPool.Get().(*QueryCtx); ok {
		return qc
	}
	return &QueryCtx{}
}

// releaseCtx returns a context to the pool for reuse.
func (ix *Index) releaseCtx(qc *QueryCtx) { ix.ctxPool.Put(qc) }

// NearestNeighbor answers an exact nearest-neighbor query: a point query on
// the cell directory retrieves every cell whose stripe-rounded approximation
// contains q — a superset of the approximations containing q — and the true
// nearest neighbor is the closest of those candidate points (Lemma 2: no
// false dismissals). Queries outside the data space — where NN-cells do not
// tile — and the (numerically pathological, counted) empty-candidate case
// take the clamp-and-verify fallback, which stays exact.
//
// The query reads no pages of either X-tree and runs on a pooled QueryCtx;
// the warm path performs no allocations. NearestNeighborPaged answers the
// same query from the paged tree.
func (ix *Index) NearestNeighbor(q vec.Point) (Neighbor, error) {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nearestLocked(qc, q)
}

// nearestLocked is the shared NN core; callers hold ix.mu (read side) and
// provide the scratch context.
func (ix *Index) nearestLocked(qc *QueryCtx, q vec.Point) (Neighbor, error) {
	if ix.alive == 0 {
		return Neighbor{}, ErrEmpty
	}
	ix.stats.queries.Add(1)
	if ix.bounds.Contains(q) {
		if nb, ok := ix.dirNearest(qc, q); ok {
			return nb, nil
		}
	}
	ix.stats.fallbacks.Add(1)
	return ix.fallbackNearest(qc, q), nil
}

// dirNearest runs the cell-directory point query at q and takes the minimum
// of the squared distances from q to the survivors, read straight from the
// coordinate store (dirScratch.nearest); the survivors are taken in ascending
// id order and only a strictly smaller distance replaces the least, so ties go
// to the smaller id. ok is false when nothing survived. Only stored cells have
// bits, so the NaN-poisoned tombstone rows are never read.
func (ix *Index) dirNearest(qc *QueryCtx, q vec.Point) (_ Neighbor, ok bool) {
	qc.surv = ix.dir.survivors(&qc.dirScratch, qc.surv, q)
	nb, count, ok := qc.nearest(q, ix.ptsFlat, qc.surv)
	ix.stats.candidates.Add(uint64(count))
	return nb, ok
}

// NearestNeighborPaged answers the NN query the way the paper's disk model
// does: a point query on the cell X-tree, every visited page accounted on
// the pager, the candidate-distance minimum folded into the traversal. It
// returns exactly what NearestNeighbor returns (same ids, same Dist2 bits)
// and is the query behind the page-access and disk-time columns of Figs.
// 8–12 and the differential oracle of the directory's tests. The first call
// after a mutation bulk-loads the tree (see Tree).
func (ix *Index) NearestNeighborPaged(q vec.Point) (Neighbor, error) {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.alive == 0 {
		return Neighbor{}, ErrEmpty
	}
	ix.stats.queries.Add(1)
	if ix.bounds.Contains(q) {
		// Dead ids never appear among the matches: the tree is built from the
		// stored cells, and a tombstone has none.
		data, d2, seen, ok := ix.pagedTree().NearestCandidate(&qc.tc, q, ix.ptsFlat)
		ix.stats.candidates.Add(uint64(seen))
		if ok {
			return Neighbor{ID: int(data), Dist2: d2}, nil
		}
	}
	ix.stats.fallbacks.Add(1)
	return ix.fallbackNearest(qc, q), nil
}

// fallbackNearest answers queries the cell point query cannot: points outside
// the data space (NN-cells only tile the space) and in-space points that fall
// into an epsilon gap between stored approximations. It is the k-NN search of
// nearestK with k = 1: the cell point query at q clamped into the data space —
// tiled by NN-cells, so it almost always yields a candidate — gives an upper
// bound on the NN distance measured from the original q, and one box pass of
// the point directory at that radius verifies it. A query in an epsilon gap has
// no candidate and scans the live points.
func (ix *Index) fallbackNearest(qc *QueryCtx, q vec.Point) Neighbor {
	return ix.nearestK(qc, qc.one[:0], q, 1)[0]
}

// nearestK appends to dst the min(k, alive) live points nearest to q,
// ascending by (Dist2, ID), and returns it; callers hold ix.mu (read side)
// and have checked alive > 0. Neither X-tree is read (DESIGN.md §19):
//
//  1. Seeds. The cell-directory survivors at q (clamped into the data space)
//     are folded into the best k (seedTopK). Any k live points bound the k-th
//     distance, and the cells around q belong to near ones.
//  2. Box passes (pointDir.search, the routine cell construction finds its
//     neighbours with). With k seeds the radius is the k-th seed distance and
//     one pass is exact. With 0 < m < k seeds it starts at the m-th distance
//     scaled to a ball expected to hold 2k points, (2k/m)^(1/d). A query
//     with k ≥ alive asks for the whole grid at once. Short of k seeds, or
//     of 4k survivors (whose k-th distance is a poor bound), a query in the
//     data space caps its first radius at the density start
//     (pointDir.densityR2) — for a query without seeds, that is where it
//     starts — and search grows a radius that finds too few. A query outside
//     keeps its seeds' radius: the density start, measured inside, would
//     have to grow all the way out to it.
func (ix *Index) nearestK(qc *QueryCtx, dst []Neighbor, q vec.Point, k int) []Neighbor {
	k = min(k, ix.alive)
	p, inside := q, ix.bounds.Contains(q)
	if !inside {
		if cap(qc.clamp) < len(q) {
			qc.clamp = make(vec.Point, len(q))
		}
		qc.clamp = qc.clamp[:len(q)]
		copy(qc.clamp, q)
		ix.bounds.ClampInPlace(qc.clamp)
		p = qc.clamp
	}
	qc.seen = ix.dir.survivors(&qc.dirScratch, qc.seen, p)
	// The list grows in dst's spare capacity, so the closing append copies
	// nothing when the caller's slice has room for k.
	h, seeds := qc.seedTopK(dst[len(dst):], k, q, ix.ptsFlat, qc.seen)

	var r2 float64
	switch m := len(h); {
	case m == k:
		r2 = h[k-1].Dist2
	case m == 0 || k == ix.alive: // nothing to start from, or every live point is wanted
		r2 = math.Inf(1)
	default:
		r2 = h[m-1].Dist2 * math.Pow(float64(2*k)/float64(m), 2/float64(ix.dim))
	}
	if inside && k < ix.alive && (len(h) < k || seeds < 4*k) {
		r2 = min(r2, ix.pdir.densityR2(k, ix.alive))
	}
	h, folded, passes := ix.pdir.search(&qc.dirScratch, h, k, q, ix.ptsFlat, r2, math.Inf(1))
	ix.stats.candidates.Add(uint64(seeds + folded))
	ix.stats.passes.Add(uint64(passes))
	return append(dst, h...)
}

// Candidates returns the distinct point ids whose stored approximation
// contains q — the paper's overlap measure in query form (1 distinct
// candidate = the perfect multidimensional-uniform case) — in ascending
// order.
func (ix *Index) Candidates(q vec.Point) []int { return ix.CandidatesAppend(nil, q) }

// CandidatesAppend appends the candidate ids for q to dst and returns it.
// Passing a reused slice makes the warm path allocation-free. Each survivor
// of the directory query is verified against the cell's stored rectangle, so
// the result is the exact overlap set, not the stripe-rounded one. Like every
// query entry point it counts one query and the inspected candidates (the
// survivors) in the index stats.
func (ix *Index) CandidatesAppend(dst []int, q vec.Point) []int {
	dst, _ = ix.CandidatesNearestAppend(dst, q)
	return dst
}

// CandidatesNearestAppend is CandidatesAppend that also returns the smallest
// squared distance from q to an appended candidate, +Inf when there is none:
// the bound a sharded caller prunes farther shards with, taken where the
// coordinates are instead of one Point copy per candidate. The survivors are
// listed with their distances in one bounded fold at +Inf, and the
// containment check keeps the candidates among them.
func (ix *Index) CandidatesNearestAppend(dst []int, q vec.Point) ([]int, float64) {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.stats.queries.Add(1)
	qc.surv = ix.dir.survivors(&qc.dirScratch, qc.surv, q)
	surv, count := qc.bounded(q, ix.ptsFlat, qc.surv, math.Inf(1), nil)
	ix.stats.candidates.Add(uint64(count))
	best := math.Inf(1)
	for _, nb := range surv {
		if ix.cells.contains(nb.ID, q) {
			dst = append(dst, nb.ID)
			best = min(best, nb.Dist2)
		}
	}
	return dst, best
}

// KNearest answers an exact k-nearest-neighbor query. k-NN via order-k cells
// is the paper's stated future work; this implementation answers k = 1 with
// the NN point query and larger k with a box search on the point directory
// seeded by the NN-cells around q (nearestK), so the index is a drop-in k-NN
// structure that reads no tree for any k.
//
// k <= 0 returns ErrBadK without touching the index or its stats; if k
// exceeds the number of live points the result is exactly the live set
// (tombstones excluded). Results are ascending by (Dist2, ID). Every locked
// path holds the read lock once and counts exactly one query.
func (ix *Index) KNearest(q vec.Point, k int) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w (got k=%d)", ErrBadK, k)
	}
	out, err := ix.KNearestAppend(make([]Neighbor, 0, k), q, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KNearestAppend is KNearest appending into a caller-owned slice, so callers
// that loop (the sharded merge, batch drivers) can keep the warm path
// allocation-free. Results are appended ascending by (Dist2, ID); dst is
// returned unchanged on error.
func (ix *Index) KNearestAppend(dst []Neighbor, q vec.Point, k int) ([]Neighbor, error) {
	if k <= 0 {
		return dst, fmt.Errorf("%w (got k=%d)", ErrBadK, k)
	}
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k == 1 {
		nb, err := ix.nearestLocked(qc, q)
		if err != nil {
			return dst, err
		}
		return append(dst, nb), nil
	}
	if ix.alive == 0 {
		return dst, ErrEmpty
	}
	ix.stats.queries.Add(1)
	return ix.nearestK(qc, dst, q, k), nil
}

// KNearestWithinAppend is KNearestAppend restricted to the live points at
// squared distance at most limit2 from q (a point at limit2 included): it
// appends the min(k, that many) nearest of them, ascending by (Dist2, ID),
// and so appends nothing when none is that near. It takes no seeds and one
// box pass of the point directory at limit2, folding only what lies within
// it. The sharded merge asks a shard it visits after holding k results for
// those within its k-th distance: the only ones that can still enter, a tie
// at that distance included, since its global id may be the smaller.
func (ix *Index) KNearestWithinAppend(dst []Neighbor, q vec.Point, k int, limit2 float64) ([]Neighbor, error) {
	if k <= 0 {
		return dst, fmt.Errorf("%w (got k=%d)", ErrBadK, k)
	}
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.alive == 0 {
		return dst, ErrEmpty
	}
	ix.stats.queries.Add(1)
	qc.seen = sized(qc.seen, len(ix.pdir.le[0]))
	clear(qc.seen)
	h, folded, passes := ix.pdir.search(&qc.dirScratch, dst[len(dst):], min(k, ix.alive), q, ix.ptsFlat, limit2, limit2)
	ix.stats.candidates.Add(uint64(folded))
	ix.stats.passes.Add(uint64(passes))
	return append(dst, h...), nil
}

// NearestNeighborBatch answers many NN queries concurrently with the given
// parallelism (0 = GOMAXPROCS). Results are positionally aligned with the
// queries. Exploiting parallelism for similarity search is the approach of
// the authors' companion paper [Ber+ 97]; the NN-cell index supports it
// directly because queries only take the read side of the index lock. Each
// worker owns one QueryCtx for its whole run, so the steady state allocates
// nothing regardless of batch size.
func (ix *Index) NearestNeighborBatch(qs []vec.Point, workers int) ([]Neighbor, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	qcs := make([]*QueryCtx, min(workers, len(qs)))
	for w := range qcs {
		qcs[w] = ix.acquireCtx()
		defer ix.releaseCtx(qcs[w])
	}
	out := make([]Neighbor, len(qs))
	err := par.Do(len(qcs), len(qs), func(w, i int) (err error) {
		ix.mu.RLock()
		out[i], err = ix.nearestLocked(qcs[w], qs[i])
		ix.mu.RUnlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
