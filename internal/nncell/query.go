package nncell

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
	"repro/internal/xtree"
)

// Neighbor is one (k-)NN result: a point id and the squared distance.
type Neighbor struct {
	ID    int
	Dist2 float64
}

// QueryCtx is the reusable per-query scratch of the read path: the survivor
// bitset of the cell-directory point query, the iterative traversal state and
// inline heaps for both backing X-trees, the k-NN result buffer, and the
// clamp buffer of the out-of-bounds fallback. A warm context makes
// NearestNeighbor, NearestNeighborPaged, CandidatesAppend and the fallback
// path allocation-free. Contexts are pooled per index (acquireCtx/releaseCtx)
// for the public entry points and held per worker by NearestNeighborBatch. A
// QueryCtx is not safe for concurrent use.
type QueryCtx struct {
	surv  []uint64         // cell-directory survivors, one bit per point id
	tc    xtree.QueryCtx   // cell-tree traversal scratch (NearestNeighborPaged)
	dc    xtree.QueryCtx   // data-tree traversal scratch (k-NN, fallback)
	nbrs  []xtree.Neighbor // data-tree result buffer
	clamp vec.Point        // clamp-to-bounds buffer of the fallback
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
// take the clamp-and-verify fallback, which stays exact and sub-linear.
//
// The query reads no pages of the cell X-tree and runs on a pooled QueryCtx;
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
		if nb, ok := ix.dirNearest(qc, q, q); ok {
			return nb, nil
		}
	}
	ix.stats.fallbacks.Add(1)
	return ix.fallbackNearest(qc, q), nil
}

// dirNearest runs the cell-directory point query at p and folds the squared
// distance from q over the survivors, read straight from the coordinate
// store; ties go to the smaller id (survivors come in ascending id order). ok
// is false when nothing survived. Only cells with stored fragments have bits,
// so the NaN-poisoned tombstone rows are never read.
func (ix *Index) dirNearest(qc *QueryCtx, p, q vec.Point) (best Neighbor, ok bool) {
	qc.surv = ix.dir.survivors(qc.surv, p)
	best = Neighbor{ID: -1, Dist2: math.Inf(1)}
	d, seen := ix.dim, 0
	for w, word := range qc.surv {
		seen += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			if d2 := vec.Dist2Flat(q, ix.ptsFlat[id*d:(id+1)*d]); d2 < best.Dist2 {
				best = Neighbor{ID: id, Dist2: d2}
			}
		}
	}
	ix.stats.candidates.Add(uint64(seen))
	return best, best.ID >= 0
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
		// stored fragments, and a tombstone has none.
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
// into an epsilon gap between stored approximations. It replaces the seed's
// O(n) sequential scan with two index operations:
//
//  1. Clamp q into the data space and run the cell point query there. The
//     clamped point is tiled by NN-cells, so this almost always yields a
//     candidate, whose distance (measured from the original q) is an upper
//     bound on the NN distance.
//  2. Run the best-first search of [HS 95] on the data X-tree, pruned by
//     that bound. The search is exact, so the result is the true nearest
//     neighbor; the seed bound typically reduces it to a single root-to-leaf
//     verification descent.
func (ix *Index) fallbackNearest(qc *QueryCtx, q vec.Point) Neighbor {
	if cap(qc.clamp) < len(q) {
		qc.clamp = make(vec.Point, len(q))
	}
	qc.clamp = qc.clamp[:len(q)]
	copy(qc.clamp, q)
	ix.bounds.ClampInPlace(qc.clamp)

	best, _ := ix.dirNearest(qc, qc.clamp, q)
	// Exact verification: the bound is inclusive, so the seed candidate (a
	// live point in the data index) is rediscovered even if nothing beats it,
	// and an empty seed (Dist2 = +Inf) degenerates to an unbounded search.
	qc.nbrs = ix.dataIdx.KNearestCtx(&qc.dc, q, 1, best.Dist2, qc.nbrs[:0])
	if len(qc.nbrs) > 0 {
		id := int(qc.nbrs[0].Entry.Data)
		if d2 := qc.nbrs[0].Dist2; d2 < best.Dist2 || (d2 == best.Dist2 && (best.ID < 0 || id < best.ID)) {
			best = Neighbor{ID: id, Dist2: d2}
		}
	}
	return best
}

// Candidates returns the distinct point ids whose stored approximation
// contains q — the paper's overlap measure in query form (1 distinct
// candidate = the perfect multidimensional-uniform case) — in ascending
// order.
func (ix *Index) Candidates(q vec.Point) []int { return ix.CandidatesAppend(nil, q) }

// CandidatesAppend appends the candidate ids for q to dst and returns it.
// Passing a reused slice makes the warm path allocation-free. Each survivor
// of the directory query is verified against the cell's stored fragments, so
// the result is the exact overlap set, not the stripe-rounded one. Like every
// query entry point it counts one query and the inspected candidates (the
// survivors) in the index stats.
func (ix *Index) CandidatesAppend(dst []int, q vec.Point) []int {
	qc := ix.acquireCtx()
	defer ix.releaseCtx(qc)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.stats.queries.Add(1)
	qc.surv = ix.dir.survivors(qc.surv, q)
	seen := 0
	for w, word := range qc.surv {
		seen += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			for _, r := range ix.cells[id] {
				if r.Contains(q) {
					dst = append(dst, id)
					break
				}
			}
		}
	}
	ix.stats.candidates.Add(uint64(seen))
	return dst
}

// KNearest answers an exact k-nearest-neighbor query. k-NN via order-k cells
// is the paper's stated future work; this implementation answers k = 1
// through the cell index and larger k through the embedded data X-tree
// (exact best-first search), so the index is usable as a drop-in k-NN
// structure either way.
//
// k <= 0 returns ErrBadK without touching the index or its stats; if k
// exceeds the number of live points the result is exactly the live set
// (tombstones excluded), sorted by distance. Every locked path holds the
// read lock once and counts exactly one query.
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
	slack := k + len(ix.cells) - ix.alive // tombstone slack
	qc.nbrs = ix.dataIdx.KNearestCtx(&qc.dc, q, slack, math.Inf(1), qc.nbrs[:0])
	start := len(dst)
	for _, nb := range qc.nbrs {
		id := int(nb.Entry.Data)
		if ix.point(id) == nil {
			continue
		}
		dst = append(dst, Neighbor{ID: id, Dist2: nb.Dist2})
		if len(dst)-start == k {
			break
		}
	}
	return dst, nil
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
	if workers > len(qs) {
		workers = len(qs)
	}
	out := make([]Neighbor, len(qs))
	errs := make([]error, workers)
	var next atomic.Int64
	var failed atomic.Bool // fail-fast: one worker's error cancels the batch
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			qc := ix.acquireCtx()
			defer ix.releaseCtx(qc)
			for {
				// The whole batch fails on the first error, so once any
				// worker has failed the remaining results would be thrown
				// away; stop computing them.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				ix.mu.RLock()
				nb, err := ix.nearestLocked(qc, qs[i])
				ix.mu.RUnlock()
				if err != nil {
					errs[slot] = err
					failed.Store(true)
					return
				}
				out[i] = nb
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
