// Package shard partitions an NN-cell index into S independent nncell.Index
// shards so that dynamic maintenance parallelizes across the partition: each
// shard owns its own RWMutex and its own directories, so routed
// Insert/Delete streams to different shards proceed concurrently instead of
// serializing behind one index-wide write lock, while queries fan out over
// all shards.
//
// Routing is pluggable (see Router): the default policy hashes the point's
// float64 bit patterns (FNV-1a), so a given point always lives in exactly
// one shard — across processes and across save/load — which keeps the
// byte-exact duplicate discipline shard-local and makes the partition stable
// without any shared routing state. The grid policy instead assigns each
// point to an axis-aligned tile of the data space, which lets point queries
// skip shards whose tiles provably cannot hold the answer.
//
// Soundness of the fan-out reads: the NN-cells of a shard are the
// first-order Voronoi cells of that shard's point subset, so each shard's
// NearestNeighbor answer is the exact nearest neighbor within its subset
// (Lemma 2 per shard). The point set is the disjoint union of the subsets,
// and min over subsets of exact per-subset minima is the exact global
// minimum — no false dismissals. The same union argument covers Candidates
// (union of per-shard candidate sets is a superset of the global candidates
// that still contains the true NN) and KNearest (the global k smallest
// distances are a subset of the union of per-shard k smallest).
//
// Ring pruning strengthens the argument without weakening it: the visit
// order follows Router.Plan, whose MinDist2 is a lower bound on the distance
// from the query to every point the shard can hold, and the loop stops only
// when the best answer so far is strictly below the next shard's bound —
// every skipped shard's minimum therefore strictly exceeds an answer already
// in hand, so skipping it cannot change the minimum (nor a distance tie,
// which the strict comparison leaves to the visited side).
package shard

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// Options configure a sharded index.
type Options struct {
	// Shards is the partition width S. Values < 1 mean 1 (a single shard,
	// behaviourally identical to a bare nncell.Index). With Route ==
	// RouteGrid the effective width is the nearest realizable tile product
	// not exceeding S (see deriveGrid); NumShards reports it.
	Shards int
	// Route selects the placement policy. The zero value is RouteHash, the
	// seed behaviour.
	Route RouteKind
	// Grid optionally pins the grid geometry for RouteGrid; nil derives it
	// from the build points (highest-variance dimensions, near-equal tile
	// counts).
	Grid *GridConfig
	// Pager configures each shard's private pager: the page store of the
	// figures' trees (a Point or Sphere Build, Shard(i).Tree()). No served
	// query or write reads a page.
	Pager pager.Config
	// Index passes construction options through to every shard.
	Index nncell.Options
}

func (o *Options) normalize() {
	if o.Shards < 1 {
		o.Shards = 1
	}
}

// Sharded is a hash-partitioned NN-cell index. The shards slice is immutable
// after construction; all synchronization lives inside the per-shard
// indexes, so Sharded itself needs no lock and adds no cross-shard
// serialization to any operation.
//
// Global point ids interleave the per-shard local ids: gid = local·S + shard.
// The mapping is stable under inserts (locals only grow) and survives
// save/load of the whole sharded index.
type Sharded struct {
	dim    int
	bounds vec.Rect
	router Router
	shards []*nncell.Index

	// scratch pools the per-query fan-out state (visit plan, per-shard k-NN
	// list, merge heap) so warm read paths stay allocation-free.
	scratch sync.Pool

	// Shards-visited observability: total routed read queries, total shard
	// probes they issued, and a power-of-two histogram of probes per query
	// (bucket i counts queries that visited <= 2^i shards).
	routeQueries atomic.Uint64
	routeVisited atomic.Uint64
	routeHist    [8]atomic.Uint64
}

// queryScratch is one fan-out's reusable state.
type queryScratch struct {
	plan []ShardDist
	nbrs []nncell.Neighbor
	heap []nncell.Neighbor
}

func (s *Sharded) acquireScratch() *queryScratch {
	if qs, ok := s.scratch.Get().(*queryScratch); ok {
		return qs
	}
	return &queryScratch{}
}

func (s *Sharded) releaseScratch(qs *queryScratch) { s.scratch.Put(qs) }

// recordVisits folds one routed read query's probe count into the
// shards-visited counters.
func (s *Sharded) recordVisits(v int) {
	s.routeQueries.Add(1)
	s.routeVisited.Add(uint64(v))
	if v < 1 {
		v = 1
	}
	if idx := bits.Len64(uint64(v - 1)); idx < len(s.routeHist) {
		s.routeHist[idx].Add(1)
	}
}

// RouteStats is the shards-visited observability snapshot: how hard the
// routing policy is working per read query. Hist bucket i counts queries
// that probed at most 2^i shards; queries above 2^7 appear only in Queries.
type RouteStats struct {
	Kind    RouteKind
	Queries uint64
	Visited uint64
	Hist    [8]uint64
}

// RouteStats returns the current shards-visited counters.
func (s *Sharded) RouteStats() RouteStats {
	out := RouteStats{
		Kind:    s.router.Kind(),
		Queries: s.routeQueries.Load(),
		Visited: s.routeVisited.Load(),
	}
	for i := range s.routeHist {
		out.Hist[i] = s.routeHist[i].Load()
	}
	return out
}

// RouteKind returns the active routing policy.
func (s *Sharded) RouteKind() RouteKind { return s.router.Kind() }

// route returns the shard owning point p: FNV-1a over the raw float64 bit
// patterns, mod S. Hashing bits (not values) matches the byte-exact
// duplicate-key discipline of nncell — two points with equal coordinates
// always share bit patterns unless they differ in a bit-level way (e.g.
// -0.0 vs 0.0), in which case they are distinct keys everywhere.
func route(p vec.Point, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range p {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(shards))
}

// Build constructs a sharded index over points: the point set is
// partitioned by the configured routing policy, non-empty partitions are
// bulk-built (each build parallelizes internally, exactly as a single index
// would), and empty partitions become empty shards ready to accept routed
// inserts.
func Build(points []vec.Point, bounds vec.Rect, opts Options) (*Sharded, error) {
	opts.normalize()
	if len(points) == 0 {
		return nil, nncell.ErrEmpty
	}
	d := points[0].Dim()
	if bounds.Dim() != d {
		return nil, fmt.Errorf("shard: bounds dim %d, points dim %d", bounds.Dim(), d)
	}
	for i, p := range points {
		if p.Dim() != d {
			return nil, fmt.Errorf("shard: point %d has dim %d, want %d", i, p.Dim(), d)
		}
	}
	r, err := newRouter(opts, d, bounds, points)
	if err != nil {
		return nil, err
	}
	parts := make([][]vec.Point, r.Shards())
	for _, p := range points {
		s := r.Route(p)
		parts[s] = append(parts[s], p)
	}
	sh := &Sharded{
		dim:    d,
		bounds: bounds.Clone(),
		router: r,
		shards: make([]*nncell.Index, r.Shards()),
	}
	for i, part := range parts {
		var (
			ix  *nncell.Index
			err error
		)
		if len(part) == 0 {
			ix, err = nncell.NewEmpty(d, bounds, pager.New(opts.Pager), opts.Index)
		} else {
			ix, err = nncell.Build(part, bounds, pager.New(opts.Pager), opts.Index)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		sh.shards[i] = ix
	}
	return sh, nil
}

// NewEmpty constructs a sharded index with zero points, ready to accept
// routed inserts, so `nncell serve -n 0` can bootstrap fresh (e.g. recover
// purely from a WAL, or start an ingest-only node). Derived grid geometry falls back to the first split
// dimensions, there being no points to measure variance over; pass
// Options.Grid to pin it.
func NewEmpty(d int, bounds vec.Rect, opts Options) (*Sharded, error) {
	opts.normalize()
	if d < 1 {
		return nil, fmt.Errorf("shard: dimensionality %d", d)
	}
	if bounds.Dim() != d {
		return nil, fmt.Errorf("shard: bounds dim %d, want %d", bounds.Dim(), d)
	}
	r, err := newRouter(opts, d, bounds, nil)
	if err != nil {
		return nil, err
	}
	sh := &Sharded{
		dim:    d,
		bounds: bounds.Clone(),
		router: r,
		shards: make([]*nncell.Index, r.Shards()),
	}
	for i := range sh.shards {
		ix, err := nncell.NewEmpty(d, bounds, pager.New(opts.Pager), opts.Index)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		sh.shards[i] = ix
	}
	return sh, nil
}

// globalID interleaves (shard, local) into the global id space.
func (s *Sharded) globalID(shard, local int) int { return local*len(s.shards) + shard }

// splitID is the inverse of globalID.
func (s *Sharded) splitID(gid int) (shard, local int) {
	return gid % len(s.shards), gid / len(s.shards)
}

// Dim returns the dimensionality.
func (s *Sharded) Dim() int { return s.dim }

// Bounds returns the data space (shared by all shards).
func (s *Sharded) Bounds() vec.Rect { return s.bounds.Clone() }

// NumShards returns the partition width S.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes one shard's index (read-only use: tests, metrics).
func (s *Sharded) Shard(i int) *nncell.Index { return s.shards[i] }

// Len returns the number of live points across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, ix := range s.shards {
		n += ix.Len()
	}
	return n
}

// Fragments returns the total number of stored approximation rectangles.
func (s *Sharded) Fragments() int {
	n := 0
	for _, ix := range s.shards {
		n += ix.Fragments()
	}
	return n
}

// Point returns the point with the given global id, or ok=false.
func (s *Sharded) Point(gid int) (vec.Point, bool) {
	if gid < 0 {
		return nil, false
	}
	shard, local := s.splitID(gid)
	return s.shards[shard].Point(local)
}

// IDs returns the global ids of all live points in increasing order.
func (s *Sharded) IDs() []int {
	var out []int
	for i, ix := range s.shards {
		for _, local := range ix.IDs() {
			out = append(out, s.globalID(i, local))
		}
	}
	sort.Ints(out)
	return out
}

// Insert routes the point to its shard and inserts it there, taking only
// that shard's write lock: inserts to different shards, and queries against
// them, proceed in parallel. Returns the new global id.
func (s *Sharded) Insert(p vec.Point) (int, error) {
	if p.Dim() != s.dim {
		return 0, fmt.Errorf("shard: insert of %d-dim point into %d-dim index", p.Dim(), s.dim)
	}
	shard := s.router.Route(p)
	local, err := s.shards[shard].Insert(p)
	if err != nil {
		return 0, err
	}
	return s.globalID(shard, local), nil
}

// Delete removes the point with the given global id, taking only its
// shard's write lock.
func (s *Sharded) Delete(gid int) error {
	if gid < 0 {
		return fmt.Errorf("shard: delete of unknown id %d", gid)
	}
	shard, local := s.splitID(gid)
	return s.shards[shard].Delete(local)
}

// InsertBatch routes the points into per-shard sub-batches and inserts the
// sub-batches concurrently, one shard write lock and one WAL append per
// sub-batch. Returned global ids are positionally aligned with ps.
//
// Atomicity is per shard, not global: each sub-batch commits all-or-nothing
// inside its shard (and is logged as one record there), but on error the
// sub-batches of OTHER shards may already have committed — the returned
// error names the failing shard, and the caller observes a consistent index
// that contains some routed subset of the batch. Callers needing global
// all-or-nothing semantics should use a single-shard configuration.
func (s *Sharded) InsertBatch(ps []vec.Point) ([]int, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	for i, p := range ps {
		if p.Dim() != s.dim {
			return nil, fmt.Errorf("shard: batch point %d has dim %d, want %d", i, p.Dim(), s.dim)
		}
	}
	subs := make([][]vec.Point, len(s.shards))
	subPos := make([][]int, len(s.shards)) // sub-batch slot -> position in ps
	for i, p := range ps {
		sh := s.router.Route(p)
		subs[sh] = append(subs[sh], p)
		subPos[sh] = append(subPos[sh], i)
	}
	out := make([]int, len(ps))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for sh := range subs {
		if len(subs[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			locals, err := s.shards[sh].InsertBatch(subs[sh])
			if err != nil {
				errs[sh] = err
				return
			}
			for k, local := range locals {
				out[subPos[sh][k]] = s.globalID(sh, local)
			}
		}(sh)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return out, nil
}

// DeleteBatch splits the global ids into per-shard sub-batches and deletes
// them concurrently. Atomicity is per shard, as in InsertBatch.
func (s *Sharded) DeleteBatch(gids []int) error {
	if len(gids) == 0 {
		return nil
	}
	subs := make([][]int, len(s.shards))
	for _, gid := range gids {
		if gid < 0 {
			return fmt.Errorf("shard: batch delete of unknown id %d", gid)
		}
		shard, local := s.splitID(gid)
		subs[shard] = append(subs[shard], local)
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for sh := range subs {
		if len(subs[sh]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			errs[sh] = s.shards[sh].DeleteBatch(subs[sh])
		}(sh)
	}
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// RepairWait drains every shard's lazy-repair queue concurrently (see
// nncell.Index.RepairWait); a no-op when LazyRepair is off or nothing is
// stale. Every shard is inspected — an idle shard (no queued or in-flight
// repairs) is skipped without spawning a drain goroutine, but never cuts the
// loop short: shards with pending work are all drained to completion before
// RepairWait returns, regardless of where the idle ones sit in the order.
func (s *Sharded) RepairWait() {
	var wg sync.WaitGroup
	for _, ix := range s.shards {
		if !ix.RepairPending() {
			continue
		}
		wg.Add(1)
		go func(ix *nncell.Index) {
			defer wg.Done()
			ix.RepairWait()
		}(ix)
	}
	wg.Wait()
}

// SetMutationHook installs h on every shard, wrapped so the hook observes
// global cell ids (see nncell.Index.SetMutationHook for the contract). A nil
// h removes the hooks. The per-shard wrapper runs under that shard's write
// lock only, so hooks from different shards may run concurrently — h must be
// safe for concurrent use (rescache.Cache.Invalidate is).
func (s *Sharded) SetMutationHook(h func(cells []int, added []vec.Point)) {
	for i, ix := range s.shards {
		if h == nil {
			ix.SetMutationHook(nil)
			continue
		}
		shardNo := i
		ix.SetMutationHook(func(locals []int, added []vec.Point) {
			gids := make([]int, len(locals))
			for k, local := range locals {
				gids[k] = s.globalID(shardNo, local)
			}
			h(gids, added)
		})
	}
}

// NearestNeighbor fans the query out in the router's plan order and returns
// the minimum — exact by the union argument in the package comment. The loop
// stops as soon as the next shard's MinDist2 strictly exceeds the best
// squared distance found (ring pruning; with hash routing every bound is 0,
// so all shards are visited, the seed behaviour). The fan-out is a
// sequential loop: each per-shard query is allocation-free on its pooled
// QueryCtx and the plan lives on a pooled scratch, so the warm sharded query
// stays at 0 allocs/op, and concurrency comes from running many queries at
// once (server handlers, Batch), not from splitting one query.
func (s *Sharded) NearestNeighbor(q vec.Point) (nncell.Neighbor, error) {
	qs := s.acquireScratch()
	defer s.releaseScratch(qs)
	qs.plan = s.router.Plan(qs.plan[:0], q)
	best := nncell.Neighbor{ID: -1, Dist2: math.Inf(1)}
	visited := 0
	for _, sd := range qs.plan {
		// Strict comparison: a point at exactly the best distance in a
		// farther shard could still win the lower-gid tie-break, so ties in
		// the bound are visited, never pruned.
		if best.ID >= 0 && sd.MinDist2 > best.Dist2 {
			break
		}
		visited++
		nb, err := s.shards[sd.Shard].NearestNeighbor(q)
		if err != nil {
			if errors.Is(err, nncell.ErrEmpty) {
				continue
			}
			return nncell.Neighbor{}, err
		}
		gid := s.globalID(sd.Shard, nb.ID)
		if nb.Dist2 < best.Dist2 || (nb.Dist2 == best.Dist2 && gid < best.ID) {
			best = nncell.Neighbor{ID: gid, Dist2: nb.Dist2}
		}
	}
	s.recordVisits(visited)
	if best.ID < 0 {
		return nncell.Neighbor{}, nncell.ErrEmpty
	}
	return best, nil
}

// Candidates returns the distinct global candidate ids for q (union over
// shards).
func (s *Sharded) Candidates(q vec.Point) []int { return s.CandidatesAppend(nil, q) }

// CandidatesAppend appends the per-shard candidate sets to dst in the
// router's plan order, with local ids rewritten to global ids in place.
// Shards hold disjoint point sets, so the union needs no cross-shard dedup;
// with a reused dst the warm path is allocation-free.
//
// Under ring pruning the result is a subset of the all-shard union that
// still satisfies the candidate contract (it contains the true NN): the
// bound is the smallest true distance among candidates seen so far, the true
// NN's distance is never larger than that, and the NN's own shard therefore
// has MinDist2 <= bound and is never pruned. Hash plans carry no bounds, so
// the distance tightening is skipped entirely and the union is unchanged
// from the seed behaviour.
func (s *Sharded) CandidatesAppend(dst []int, q vec.Point) []int {
	qs := s.acquireScratch()
	defer s.releaseScratch(qs)
	qs.plan = s.router.Plan(qs.plan[:0], q)
	// Distance computation only pays off when some plan entry has a nonzero
	// bound to prune against; the plan is sorted, so check the last.
	prune := qs.plan[len(qs.plan)-1].MinDist2 > 0
	bound := math.Inf(1)
	visited := 0
	for _, sd := range qs.plan {
		if prune && sd.MinDist2 > bound {
			break
		}
		visited++
		ix := s.shards[sd.Shard]
		start := len(dst)
		if prune {
			// The shard takes the nearest candidate's distance where the
			// coordinates are; asking it for each Point would copy them out.
			var nearest float64
			dst, nearest = ix.CandidatesNearestAppend(dst, q)
			bound = min(bound, nearest)
		} else {
			dst = ix.CandidatesAppend(dst, q)
		}
		for j := start; j < len(dst); j++ {
			dst[j] = s.globalID(sd.Shard, dst[j])
		}
	}
	s.recordVisits(visited)
	return dst
}

// KNearest merges the per-shard k-NN lists into the global k nearest: each
// shard returns its k closest (exact within its subset, ascending by
// (Dist2, ID)), and the global k smallest are guaranteed to appear among the
// visited shards' lists. The result is a fresh slice; KNearestAppend reuses
// one.
func (s *Sharded) KNearest(q vec.Point, k int) ([]nncell.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w (got k=%d)", nncell.ErrBadK, k)
	}
	out, err := s.KNearestAppend(make([]nncell.Neighbor, 0, k), q, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KNearestAppend appends the global k nearest to dst and returns it (the
// allocation-free entry point for callers holding a reused buffer). Shards
// are visited in plan order; each sorted per-shard list streams into a
// bounded max-heap of the current top k, so the merge is O(S·k·log k) with
// no per-call list/cursor allocations (the seed path materialized all S
// lists and linear-scanned them per output element). Ring pruning stops the
// fan-out once the heap holds k results whose worst entry beats the next
// shard's MinDist2; the bound is exact for the same reason as in
// NearestNeighbor, applied to the k-th distance.
func (s *Sharded) KNearestAppend(dst []nncell.Neighbor, q vec.Point, k int) ([]nncell.Neighbor, error) {
	if k <= 0 {
		return dst, fmt.Errorf("%w (got k=%d)", nncell.ErrBadK, k)
	}
	qs := s.acquireScratch()
	defer s.releaseScratch(qs)
	qs.plan = s.router.Plan(qs.plan[:0], q)
	heap := qs.heap[:0]
	any := false
	visited := 0
	for _, sd := range qs.plan {
		// Strict: a k-th-distance tie in a farther shard can win on id.
		if len(heap) == k && sd.MinDist2 > heap[0].Dist2 {
			break
		}
		visited++
		nbs, err := s.shards[sd.Shard].KNearestAppend(qs.nbrs[:0], q, k)
		qs.nbrs = nbs[:0]
		if err != nil {
			if errors.Is(err, nncell.ErrEmpty) {
				continue
			}
			qs.heap = heap[:0]
			return dst, err
		}
		any = true
		for _, nb := range nbs {
			nb.ID = s.globalID(sd.Shard, nb.ID)
			var kept bool
			if heap, kept = nncell.PushTopK(heap, k, nb); !kept {
				// The list ascends by (Dist2, local id) and the global id is
				// monotone in the local one, so no later entry beats the
				// heap's worst either.
				break
			}
		}
	}
	s.recordVisits(visited)
	if !any {
		qs.heap = heap[:0]
		return dst, nncell.ErrEmpty
	}
	nncell.SortTopK(heap)
	dst = append(dst, heap...)
	qs.heap = heap[:0]
	return dst, nil
}

// NearestNeighborBatch answers many NN queries concurrently with the given
// parallelism (0 = GOMAXPROCS, as for a bare index: each query walks its
// shards sequentially, so the shard count says nothing about useful width;
// capped at the batch size). Results are positionally aligned with the
// queries; one query's error fails the whole batch fast.
func (s *Sharded) NearestNeighborBatch(qs []vec.Point, workers int) ([]nncell.Neighbor, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	out := make([]nncell.Neighbor, len(qs))
	errs := make([]error, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				nb, err := s.NearestNeighbor(qs[i])
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

// Stats returns the sum of the per-shard stats snapshots, except
// StaleCellsHighWater, which is the maximum over the shards: the
// MaxStaleCells cap it is read against applies to each shard on its own.
func (s *Sharded) Stats() nncell.Stats {
	var out nncell.Stats
	for _, ix := range s.shards {
		st := ix.Stats()
		out.LPSolves += st.LPSolves
		out.LPPivots += st.LPPivots
		out.ConstraintPoints += st.ConstraintPoints
		out.Fragments += st.Fragments
		out.Queries += st.Queries
		out.Candidates += st.Candidates
		out.Fallbacks += st.Fallbacks
		out.Updates += st.Updates
		out.PruneVisited += st.PruneVisited
		out.StaleCells += st.StaleCells
		if st.StaleCellsHighWater > out.StaleCellsHighWater {
			out.StaleCellsHighWater = st.StaleCellsHighWater
		}
		out.Repairs += st.Repairs
		out.RepairFailures += st.RepairFailures
	}
	return out
}

// ShardStat is one shard's slice of the observability surface, exposed per
// shard in /metrics so routing skew and per-shard maintenance load are
// visible in production.
type ShardStat struct {
	Points    int
	Fragments uint64
	Queries   uint64
	Updates   uint64
}

// ShardStats returns one entry per shard, indexed by shard number.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, ix := range s.shards {
		st := ix.Stats()
		out[i] = ShardStat{
			Points:    ix.Len(),
			Fragments: st.Fragments,
			Queries:   st.Queries,
			Updates:   st.Updates,
		}
	}
	return out
}

// CheckInvariants verifies every shard's internal consistency plus the
// sharding invariant itself: each live point must route to the shard that
// stores it (otherwise duplicate detection and routed deletes would look in
// the wrong shard).
func (s *Sharded) CheckInvariants() error {
	for i, ix := range s.shards {
		if err := ix.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for _, local := range ix.IDs() {
			p, ok := ix.Point(local)
			if !ok {
				return fmt.Errorf("shard %d: listed id %d has no point", i, local)
			}
			if want := s.router.Route(p); want != i {
				return fmt.Errorf("shard %d holds point %v that routes to shard %d", i, p, want)
			}
		}
	}
	return nil
}
