// Package nncell implements the paper's contribution: nearest-neighbor
// search by precomputing and indexing the solution space.
//
// For every data point P the first-order Voronoi cell ("NN-cell", Definition
// 2) — the set of all query points whose nearest neighbor is P — is
// approximated by its minimum bounding hyper-rectangle (Definition 3). Each
// MBR boundary is the optimum of a linear program whose constraints are the
// bisector half-spaces between P and (a subset of) the other data points.
// One approximation rectangle is stored per point id; the decomposition of
// Definition 5 (up to k fragments along the cell's most oblique dimensions) is
// computed from the stored cells on demand (Decompose), for the figures.
// A nearest-neighbor query is then a point query on the approximations
// followed by a distance comparison among the returned candidates; Lemmas 1
// and 2 of the paper guarantee no false dismissals, which makes the result
// exact. One structure locates approximations, for queries and for writes: a
// bit-sliced cell directory (celldir.go) that keeps them rounded outward to a
// 64-stripe grid — a superset of a superset, so the lemmas hold unchanged.
// NearestNeighbor answers the point query from it, Insert and Delete the
// affected-cell range query. The paper's X-tree over the approximations is
// derived from them on demand (Tree); NearestNeighborPaged answers the query
// from it, with the page accesses the paper's disk model counts. A second
// directory on the same grid holds the data points (pointdir.go): KNearest and
// the fallback for queries outside the data space run an exact box search on
// it, its radius taken from the points of the cells around the query, and cell
// construction finds a point's neighbours with the same search, started from
// the point density. The index keeps no tree.
//
// The package supports the paper's four constraint-selection algorithms
// (Correct, Point, Sphere, NN-Direction), parallel bulk construction, and
// the dynamic case: insertion with affected-cell maintenance and deletion
// with neighbor recomputation. Point and Sphere are defined by the leaf pages
// of an X-tree over the points, which only Build loads: they are what the
// figures measure, and every cell computed after Build, on any index, selects
// NN-Direction (any subset of the points keeps the approximation a superset,
// Lemma 1).
package nncell

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/pager"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// Algorithm selects which data points contribute bisector constraints to the
// cell-approximation LPs (the paper's four variants, §2).
type Algorithm int

// The four constraint-selection algorithms of the paper. NNDirection, the
// one the served system runs, is the zero value; Algorithms lists them in the
// paper's order, which is also the order of their on-disk codes (persist.go).
const (
	// NNDirection uses a constant-size set: the 8·d nearest neighbors — the
	// pool from which the paper picks, per axis direction, the nearest point
	// and the point with smallest angular deviation from the axis. The whole
	// pool is a superset of those ≤ 4·d picks, so the cells come out tighter
	// (Lemma 1) at O(d) constraints per cell all the same.
	NNDirection Algorithm = iota
	// Correct uses every other data point, with a sound iterative pruning
	// (points farther than twice the current cell radius cannot touch the
	// cell), yielding the exact MBR approximation. It solves LPs against
	// O(n) constraint points per cell: fine at the figures' scales, quadratic
	// in total at bulk scale.
	Correct
	// PointAlg uses all points stored on data pages whose page region
	// contains the point being inserted. Build only, like Sphere: a cell
	// computed by a write, a repair or a replay selects NNDirection.
	PointAlg
	// Sphere uses all points on data pages whose region intersects a sphere
	// around the point (radius: the paper's heuristic, see SphereRadius).
	Sphere
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Correct:
		return "Correct"
	case PointAlg:
		return "Point"
	case Sphere:
		return "Sphere"
	case NNDirection:
		return "NN-Direction"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists all constraint-selection variants in the paper's order.
func Algorithms() []Algorithm { return []Algorithm{Correct, PointAlg, Sphere, NNDirection} }

// code is a's position in Algorithms: its on-disk code (persist.go), and the
// seed offset of the benchmarks' point sets.
func (a Algorithm) code() int { return slices.Index(Algorithms(), a) }

// Options configure index construction.
type Options struct {
	// Algorithm is the constraint-selection variant. Default NNDirection.
	Algorithm Algorithm
	// MaxConstraintPoints caps the constraint-set size of the Point and
	// Sphere selections (0 = unlimited). On heavily clustered data those
	// selections can degenerate to nearly all points — the pathology §2 of
	// the paper reports for real data; capping keeps the closest points,
	// which is sound by Lemma 1 (any subset only enlarges the MBR).
	MaxConstraintPoints int
	// LazyRepair defers the affected-cell recomputation of Insert and
	// InsertBatch: affected cells are marked stale and re-approximated by a
	// background pool instead of being re-solved inside the mutation's write
	// lock. Stale cells keep serving their previous MBRs, which Lemma 1
	// keeps correct — an insert only shrinks existing cells, so the old
	// approximations remain supersets and queries stay exact (at worst a few
	// extra candidates). Deletes always repair eagerly: a delete grows its
	// neighbors' cells, so their old MBRs would stop being supersets.
	LazyRepair bool
}

// epsilon pads every stored MBR to absorb LP tolerance (finishRect), and the
// pad is what keeps queries exact. An MBR the LP shaved by its tolerance could
// miss a query point inside its cell; the query would then answer from the
// cells that do contain the point, a farther neighbour, with nothing to say
// so. The fallback does not catch that: it runs only when no cell survives.
const epsilon = 1e-9

// Stats aggregates counters for experiments.
type Stats struct {
	// LPSolves and LPPivots count linear programs run and simplex pivots.
	LPSolves, LPPivots uint64
	// ConstraintPoints sums the constraint-set sizes over all LP batches
	// (one batch = one cell side set), for the quality/performance analysis
	// of Fig. 4/5.
	ConstraintPoints uint64
	// Fragments is the number of stored approximation rectangles: one per
	// live point.
	Fragments uint64
	// Queries, Candidates and Fallbacks describe query-time behaviour:
	// candidates inspected, and exact fallbacks taken (0 in normal
	// operation). On the serving path a candidate is one distance
	// evaluation: for NearestNeighbor and CandidatesAppend a survivor of the
	// cell-directory query, for KNearest with k > 1 and for the fallback
	// those seeds plus the point-directory box survivors not among them. On
	// NearestNeighborPaged it is a cell whose MBR contains the query point.
	Queries, Candidates, Fallbacks uint64
	// Updates counts affected-cell recomputations due to Insert/Delete.
	Updates uint64
	// PruneVisited counts the data points retrieved by the Correct
	// algorithm's pruning range queries — with index-backed retrieval this
	// stays far below points×rounds, the cost of a linear scan per round.
	PruneVisited uint64
	// StaleCells is the number of cells currently marked stale by the lazy
	// repair path (serving their previous, still-superset MBRs).
	// StaleCellsHighWater is the largest value StaleCells has reached this
	// process lifetime: the worst backlog lazy repair has let build up.
	StaleCells, StaleCellsHighWater uint64
	// Repairs counts stale cells re-approximated and committed by the
	// repair pool; RepairFailures counts repairs abandoned because the
	// cell's LPs failed (the cell keeps its old superset MBR).
	Repairs, RepairFailures uint64
}

// Index is a dynamic NN-cell index over a point database.
type Index struct {
	dim    int
	opts   Options
	pg     *pager.Pager
	bounds vec.Rect

	// ctxPool recycles QueryCtx scratch across queries (see acquireCtx); the
	// zero value is ready, so Build and the persistence loader need no setup.
	ctxPool sync.Pool

	mu      sync.RWMutex
	wlog    *wal.Log  // nil: no durability; see AttachWAL
	ptsFlat []float64 // the coordinates: point id's at [id*dim:(id+1)*dim], a NaN row for a tombstone (see point)
	alive   int
	cells   cellStore // the approximation MBR per point id, float32 rounded outward (an empty row for a tombstone or a staged insert)
	dir     *cellDir  // the cells rounded to the stripe grid, one bit per cell (point and range queries)
	pdir    *pointDir // the live points on the same grid, cumulative rows (k-NN, NN fallback, constraint selection, duplicate check)

	// The index keeps no tree. tree is the paged form of cells (Data = point
	// id): nil until pagedTree builds it under treeMu (its callers hold mu on
	// the read side only), nil again once a commit changes a cell.
	treeMu sync.Mutex
	tree   *xtree.Tree

	// Lazy-repair state (see repair.go). stale maps each stale cell id to
	// the monotonically increasing epoch of its most recent marking; a
	// repair computed at epoch e commits only if the cell is still stale at
	// exactly e (any interleaved mutation re-marks or clears and bumps).
	// Both are guarded by mu; rq has its own internal lock (acquired only
	// while mu is held or by goroutines holding neither).
	stale    map[int]uint64
	staleSeq uint64
	rq       repairQueue

	stats struct {
		lpSolves, lpPivots, constraintPoints atomic.Uint64
		queries, candidates, fallbacks       atomic.Uint64
		passes                               atomic.Uint64 // point-directory box passes of the k-NN searches
		dists                                atomic.Uint64 // distances the query folds took (the code bound skips the rest)
		updates                              atomic.Uint64
		pruneVisited                         atomic.Uint64
		staleCells                           atomic.Int64
		staleHighWater                       atomic.Uint64
		repairs, repairFailures              atomic.Uint64
	}

	// testHookApprox, when non-nil, intercepts approximateCell before any LP
	// runs. Set only by failure-injection tests to exercise the dynamic
	// path's staged-commit rollback; nil in all production configurations.
	testHookApprox func(id int) error

	// mutHook, when non-nil, is called at the commit point of every mutation
	// that changes stored cells (Insert, Delete, the batch variants, and
	// lazy-repair commits) with the ids of the touched cells and, for
	// inserts, the coordinates of the points added. It runs while ix.mu is
	// held (write side), so it completes before the mutation is
	// acknowledged — the property the exact result cache's invalidation
	// depends on (see internal/rescache). The hook must not call back into
	// the index.
	mutHook func(cells []int, added []vec.Point)
}

// SetMutationHook installs (or, with nil, removes) the commit-time mutation
// hook. The hook receives the ids of every cell a mutation created, deleted,
// or whose stored approximation it changed, plus the coordinates of any
// points the mutation inserted (the geometric signal a result cache needs:
// an insert can only change a memoized answer if the new point beats the
// stored distance, a condition the cell-id set alone cannot decide across
// shards). It runs synchronously before the mutation returns.
func (ix *Index) SetMutationHook(h func(cells []int, added []vec.Point)) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.mutHook = h
}

// notifyMutationLocked invokes the mutation hook with the affected cells,
// the ids of the points the mutation itself added or removed, and the
// coordinates of inserted points. Callers hold ix.mu (write side).
func (ix *Index) notifyMutationLocked(affected []int, added []vec.Point, own ...int) {
	if ix.mutHook == nil {
		return
	}
	cells := make([]int, 0, len(affected)+len(own))
	cells = append(cells, affected...)
	cells = append(cells, own...)
	if len(cells) > 0 || len(added) > 0 {
		ix.mutHook(cells, added)
	}
}

// ErrEmpty is returned when building over an empty point set.
var ErrEmpty = errors.New("nncell: empty point set")

// ErrBadK is returned by KNearest for non-positive k. Callers can detect it
// with errors.Is; the returned error carries the offending value.
var ErrBadK = errors.New("nncell: k must be positive")

// Build constructs the index over points (bulk load): it first fills the point
// directory (the neighbour searches of constraint selection run on it), then
// computes every cell's approximation in parallel against the full point set,
// and finally fills the cell directory from the cell MBRs. The bounds
// rectangle is the data space; all points must lie in it. Exact duplicate
// points are rejected (a duplicated point has an empty NN-cell, which the
// paper's construction excludes).
//
// The build streams: each worker keeps only its own LP scratch (one cellCtx)
// and stores a finished cell under its id, so peak memory is the output
// itself (cell MBRs + directories) plus O(workers) scratch — never all
// 2·d·n constraint sets at once. Under NN-Direction (the default) every
// constraint set is O(d), which is what makes n = 10⁵ bulk builds both fit
// in memory and finish; a failed cell stops the other workers immediately
// instead of solving the remaining LPs for a build that will be thrown away.
func Build(points []vec.Point, bounds vec.Rect, pg *pager.Pager, opts Options) (*Index, error) {
	if len(points) == 0 {
		return nil, ErrEmpty
	}
	d := points[0].Dim()
	if bounds.Dim() != d {
		return nil, fmt.Errorf("nncell: bounds dim %d, points dim %d", bounds.Dim(), d)
	}
	for i, p := range points {
		if p.Dim() != d {
			return nil, fmt.Errorf("nncell: point %d has dim %d, want %d", i, p.Dim(), d)
		}
		if !validPoint(p, bounds) {
			return nil, fmt.Errorf("nncell: point %d = %v outside data space %v", i, p, bounds)
		}
	}
	if i, j, dup := dupIndex(points, d); dup {
		return nil, fmt.Errorf("nncell: duplicate point %v (indexes %d and %d); deduplicate first", points[j], i, j)
	}

	ix := &Index{
		dim:    d,
		opts:   opts,
		pg:     pg,
		bounds: bounds.Clone(),
		alive:  len(points),
	}
	ix.ptsFlat = make([]float64, 0, len(points)*d)
	for _, p := range points {
		ix.ptsFlat = append(ix.ptsFlat, p...)
	}

	// Phase 1: the point directory, which constraint selection searches.
	ix.pdir = newPointDir(newStripeGrid(ix.bounds), ix.ptsFlat)

	// Phase 2: approximate all cells on the worker pool the dynamic path
	// uses too, each result going straight into the slot of its id. The Point
	// and Sphere selections read the leaf pages of an X-tree over the points
	// (Data = point id, ascending): this is the one place that builds it.
	ids := make([]int, len(points))
	for i := range ids {
		ids[i] = i
	}
	cc := ix.buildCtx()
	if cc.pages != nil {
		defer cc.pages.Release()
	}
	var err error
	if ix.cells, err = ix.approximateCells(cc, ids); err != nil {
		return nil, err
	}

	// Phase 3: fill the cell directory.
	ix.dir = newCellDir(ix.bounds, ix.cells)
	return ix, nil
}

// buildCtx returns the cellCtx of a selection over the whole point set, as
// Build runs it: under Point and Sphere it carries the X-tree over the live
// points (Data = point id, ascending) whose leaf pages those selections read,
// which the caller releases. Build and Decompose are the only callers; every
// other cell is computed on a context without pages.
func (ix *Index) buildCtx() *cellCtx {
	cc := newCellCtx(ix.dim)
	if alg := ix.opts.Algorithm; alg == PointAlg || alg == Sphere {
		items := make([]xtree.Entry, 0, ix.alive)
		for id := 0; id < len(ix.ptsFlat)/ix.dim; id++ {
			if p := ix.point(id); p != nil {
				items = append(items, xtree.Entry{Rect: vec.Rect{Lo: p, Hi: p}, Data: int64(id)}) // BulkLoad copies
			}
		}
		cc.pages = xtree.BulkLoad(ix.dim, ix.pg, xtree.Options{}, items)
	}
	return cc
}

// point returns the coordinates of id as a view of its row, nil for a
// tombstone. Whoever keeps coordinates past a mutation clones them.
func (ix *Index) point(id int) vec.Point {
	row := ix.ptsFlat[id*ix.dim : (id+1)*ix.dim : (id+1)*ix.dim]
	if math.IsNaN(row[0]) { // bury poisons the whole row, and validPoint admits finite coordinates only
		return nil
	}
	return row
}

// bury poisons id's row: point(id) is nil from here on, and a read path that
// resolved the tombstone anyway (TestTombstoneCoordsUnreachable: none does)
// would compute NaN distances, not a plausible neighbor.
func (ix *Index) bury(id int) {
	for j := id * ix.dim; j < (id+1)*ix.dim; j++ {
		ix.ptsFlat[j] = math.NaN()
	}
	ix.pdir.clear(id)
}

// dupIndex reports whether any two points share exactly the same float64 bit
// patterns, returning their indexes. It sorts an index permutation and
// compares adjacent rows — O(n log n) comparisons, O(n) extra memory — where
// the previous string-keyed map cost ~80 bytes of transient key per point,
// the dominant allocation of a 10⁵-point bulk build's validation pass.
func dupIndex(points []vec.Point, d int) (int, int, bool) {
	order := make([]int32, len(points))
	for i := range order {
		order[i] = int32(i)
	}
	less := func(a, b vec.Point) int {
		for j := 0; j < d; j++ {
			x, y := math.Float64bits(a[j]), math.Float64bits(b[j])
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sort.Slice(order, func(i, j int) bool {
		return less(points[order[i]], points[order[j]]) < 0
	})
	for k := 1; k < len(order); k++ {
		if less(points[order[k-1]], points[order[k]]) == 0 {
			i, j := int(order[k-1]), int(order[k])
			if i > j {
				i, j = j, i
			}
			return i, j, true
		}
	}
	return 0, 0, false
}

// NewEmpty constructs an index over zero points. Build rejects empty point
// sets (the paper's construction needs at least one cell), but the dynamic
// path handles an empty index fine — the first Insert's cell owns the whole
// data space — and the sharded layer needs exactly that: a shard whose hash
// partition starts empty must still accept routed inserts later.
func NewEmpty(d int, bounds vec.Rect, pg *pager.Pager, opts Options) (*Index, error) {
	if d <= 0 {
		return nil, fmt.Errorf("nncell: invalid dimensionality %d", d)
	}
	if bounds.Dim() != d {
		return nil, fmt.Errorf("nncell: bounds dim %d, want %d", bounds.Dim(), d)
	}
	cells := newCellStore(d, 0)
	dir := newCellDir(bounds, cells)
	return &Index{
		dim:    d,
		opts:   opts,
		pg:     pg,
		bounds: bounds.Clone(),
		cells:  cells,
		dir:    dir,
		pdir:   newPointDir(dir.stripeGrid, nil),
	}, nil
}

// Dim returns the dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of live points.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.alive
}

// Bounds returns the data space.
func (ix *Index) Bounds() vec.Rect { return ix.bounds.Clone() }

// Point returns the point with the given id, or ok=false if it was deleted
// or never existed.
func (ix *Index) Point(id int) (vec.Point, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= ix.cells.len() || ix.point(id) == nil {
		return nil, false
	}
	return ix.point(id).Clone(), true
}

// CellApprox returns the stored approximation MBR of the cell of point id: its
// float32 row, widened.
func (ix *Index) CellApprox(id int) (vec.Rect, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= ix.cells.len() || !ix.cells.has(id) {
		return vec.Rect{}, false
	}
	return ix.cells.rect(id), true
}

// Algorithm returns the configured constraint selection: what Build ran
// under, and what a snapshot records.
func (ix *Index) Algorithm() Algorithm { return ix.opts.Algorithm }

// Tree returns the X-tree over the cell approximations (read-only use). The
// index does not keep one: the first call after a mutation bulk-loads it from
// the stored cells in ascending id order, O(n log n), and the next commit
// returns its pages to the pager. A built tree is never changed, so it does
// not race with writers, but it must not be queried after that commit.
func (ix *Index) Tree() *xtree.Tree {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.pagedTree()
}

// pagedTree is Tree for callers that hold ix.mu (read side suffices).
func (ix *Index) pagedTree() *xtree.Tree {
	ix.treeMu.Lock()
	defer ix.treeMu.Unlock()
	if ix.tree == nil {
		items := make([]xtree.Entry, 0, ix.alive)
		for id := 0; id < ix.cells.len(); id++ {
			if ix.cells.has(id) {
				items = append(items, xtree.Entry{Rect: ix.cells.rect(id), Data: int64(id)})
			}
		}
		ix.tree = xtree.BulkLoad(ix.dim, ix.pg, xtree.Options{}, items)
	}
	return ix.tree
}

// dropTree releases the derived cell tree ahead of a change to the cells it
// was built from. Callers hold ix.mu (write side), which excludes treeMu's
// holders.
func (ix *Index) dropTree() {
	if ix.tree != nil {
		ix.tree.Release()
		ix.tree = nil
	}
}

// PagerStats returns the page-access counters of the pager the index was built
// or loaded on: what Build's Point and Sphere selections and the paged query
// (Tree, NearestNeighborPaged) read.
func (ix *Index) PagerStats() pager.Stats { return ix.pg.Stats() }

// Stats returns a snapshot of the counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	cells := uint64(ix.alive)
	ix.mu.RUnlock()
	stale := ix.stats.staleCells.Load()
	if stale < 0 {
		stale = 0
	}
	return Stats{
		LPSolves:            ix.stats.lpSolves.Load(),
		LPPivots:            ix.stats.lpPivots.Load(),
		ConstraintPoints:    ix.stats.constraintPoints.Load(),
		Fragments:           cells,
		Queries:             ix.stats.queries.Load(),
		Candidates:          ix.stats.candidates.Load(),
		Fallbacks:           ix.stats.fallbacks.Load(),
		Updates:             ix.stats.updates.Load(),
		PruneVisited:        ix.stats.pruneVisited.Load(),
		StaleCells:          uint64(stale),
		StaleCellsHighWater: ix.stats.staleHighWater.Load(),
		Repairs:             ix.stats.repairs.Load(),
		RepairFailures:      ix.stats.repairFailures.Load(),
	}
}

// ApproxVolumeSum returns Σ vol(cells)/vol(DS): the expected number of
// candidate cells for a uniformly distributed query — the paper's "overlap"
// quality measure in analytic form. The ideal value is 1.
func (ix *Index) ApproxVolumeSum() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	total := 0.0
	for id := 0; id < ix.cells.len(); id++ {
		if ix.cells.has(id) {
			total += ix.cells.rect(id).IntersectionVolume(ix.bounds)
		}
	}
	v := ix.bounds.Volume()
	if v == 0 {
		return 0
	}
	return total / v
}

// SphereRadius returns the Sphere algorithm's heuristic radius for a
// database of n points in dimension d: a multiple of the expected
// nearest-neighbor scale n^(-1/d) of the unit data space (the paper reports
// the heuristic "radius = 2·(1/n)^(1/d)" as working well on uniform data).
func SphereRadius(n, d int) float64 {
	if n < 1 {
		n = 1
	}
	return 2 * math.Pow(1/float64(n), 1/float64(d))
}

// IDs returns the ids of all live points in increasing order.
func (ix *Index) IDs() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := make([]int, 0, ix.alive)
	for id := 0; id < ix.cells.len(); id++ {
		if ix.point(id) != nil {
			ids = append(ids, id)
		}
	}
	return ids
}
