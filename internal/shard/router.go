package shard

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/vec"
)

// RouteKind identifies a shard-routing policy.
type RouteKind uint8

const (
	// RouteHash is the seed policy: FNV-1a over the point's float64 bit
	// patterns mod S. Placement is uniform and oblivious to geometry, so
	// every read query must visit all S shards.
	RouteHash RouteKind = iota
	// RouteGrid partitions the data space into axis-aligned tiles over the
	// highest-variance dimensions and stores each point in its containing
	// tile's shard. Point queries then visit the query's tile plus only the
	// neighbor tiles whose regions intersect the ball of the best-so-far
	// distance, so mean shards-visited is a small constant independent of S.
	RouteGrid
)

// String returns the flag spelling of the policy.
func (k RouteKind) String() string {
	switch k {
	case RouteHash:
		return "hash"
	case RouteGrid:
		return "grid"
	default:
		return fmt.Sprintf("RouteKind(%d)", uint8(k))
	}
}

// ParseRouteKind parses the flag spelling ("hash" or "grid").
func ParseRouteKind(s string) (RouteKind, error) {
	switch s {
	case "hash":
		return RouteHash, nil
	case "grid":
		return RouteGrid, nil
	default:
		return 0, fmt.Errorf("shard: unknown routing policy %q (hash|grid)", s)
	}
}

// ShardDist pairs a shard with a lower bound on the squared distance from a
// query point to any point stored in that shard. A plan sorted ascending by
// (MinDist2, Shard) lets the fan-out stop as soon as the bound exceeds the
// best answer found so far.
type ShardDist struct {
	Shard    int
	MinDist2 float64
}

// Router decides point placement and query visit order. Implementations are
// immutable after construction, so they are safe for concurrent use without
// locks. The routing contract every policy must satisfy:
//
//   - Route is a pure function of the point (stable across processes and
//     save/load), so a point always lives in exactly one shard.
//   - Plan returns every shard exactly once, sorted ascending by
//     (MinDist2, Shard), where MinDist2 is a valid lower bound on the
//     squared distance from q to every point p with Route(p) == that shard.
//
// The second property is what makes ring-pruned fan-out exact: once the
// best-so-far squared distance is below the next shard's MinDist2, no
// unvisited shard can hold a closer point (see the package comment's
// disjoint-union argument).
type Router interface {
	Kind() RouteKind
	Shards() int
	Route(p vec.Point) int
	// Plan writes the visit order into dst (reusing its capacity) and
	// returns it. It must not retain dst.
	Plan(dst []ShardDist, q vec.Point) []ShardDist
}

// hashRouter is the seed FNV policy behind the Router interface. Its Plan
// reports MinDist2 = 0 for every shard — a hash placement supports no
// geometric bound — so ring pruning never fires and the fan-out behaves
// exactly as it did before the interface existed.
type hashRouter struct {
	shards int
}

func (h *hashRouter) Kind() RouteKind       { return RouteHash }
func (h *hashRouter) Shards() int           { return h.shards }
func (h *hashRouter) Route(p vec.Point) int { return route(p, h.shards) }

func (h *hashRouter) Plan(dst []ShardDist, q vec.Point) []ShardDist {
	dst = dst[:0]
	for i := 0; i < h.shards; i++ {
		dst = append(dst, ShardDist{Shard: i})
	}
	return dst
}

// maxGridDims bounds the number of split dimensions. Tiling more than three
// dimensions makes the boundary ring grow like 3^m and erases the locality
// win, so derivation never chooses more, and a persisted geometry may not
// either.
const maxGridDims = 3

// gridRouter is the space-partitioned policy. Tile boundaries are stored as
// explicit edge arrays (edges[i][c] .. edges[i][c+1] is tile c of split
// dimension i), and Route finds a point's tile by searching those SAME
// arrays — so a stored point provably lies inside its tile's closed
// interval, with no floating-point divide/round inconsistency between
// placement and the MinDist2 bounds Plan computes from the arrays.
type gridRouter struct {
	dims   []int       // split dimensions, in count-assignment order
	edges  [][]float64 // per split dim: count+1 tile edges, first=Lo, last=Hi
	counts []int       // per split dim: tile count (= len(edges[i])-1)
	shards int         // product of counts
}

func (g *gridRouter) Kind() RouteKind { return RouteGrid }
func (g *gridRouter) Shards() int     { return g.shards }

// tileOf returns the tile of coordinate v: the largest c with edges[c] <= v,
// clamped into [0, count-1]. Boundary coordinates (v exactly on an interior
// edge) go to the upper tile; out-of-range coordinates clamp to the first or
// last tile. Both intervals of a boundary point contain it, so either choice
// keeps the containment invariant; the clamp only matters for query points
// (stored points are validated in-bounds by nncell).
func tileOf(edges []float64, v float64) int {
	c := 0
	for c+1 < len(edges)-1 && v >= edges[c+1] {
		c++
	}
	return c
}

func (g *gridRouter) Route(p vec.Point) int {
	s := 0
	for i, d := range g.dims {
		s = s*g.counts[i] + tileOf(g.edges[i], p[d])
	}
	return s
}

// Plan enumerates every tile with its MinDist2 to q (sum over split
// dimensions of the squared distance from q's coordinate to the tile's
// interval) and sorts ascending by (MinDist2, Shard). The query's own tile
// is at distance 0 and comes first; tiles sharing a face/edge/corner with
// the query's ball follow in bound order.
func (g *gridRouter) Plan(dst []ShardDist, q vec.Point) []ShardDist {
	dst = dst[:0]
	for s := 0; s < g.shards; s++ {
		rem := s
		d2 := 0.0
		for i := len(g.dims) - 1; i >= 0; i-- {
			c := rem % g.counts[i]
			rem /= g.counts[i]
			lo, hi := g.edges[i][c], g.edges[i][c+1]
			v := q[g.dims[i]]
			if v < lo {
				d2 += (lo - v) * (lo - v)
			} else if v > hi {
				d2 += (v - hi) * (v - hi)
			}
		}
		dst = append(dst, ShardDist{Shard: s, MinDist2: d2})
	}
	slices.SortFunc(dst, planCmp)
	return dst
}

// planCmp orders a plan ascending by (MinDist2, Shard). No two entries of a
// plan name the same shard, so the order is deterministic.
func planCmp(a, b ShardDist) int {
	if c := cmp.Compare(a.MinDist2, b.MinDist2); c != 0 {
		return c
	}
	return cmp.Compare(a.Shard, b.Shard)
}

// newGridRouter validates a grid geometry and precomputes the tile edges.
// The edges are derived deterministically from (bounds, dims, counts), so a
// router rebuilt from a persisted config places every point identically.
func newGridRouter(d int, bounds vec.Rect, dims, counts []int) (*gridRouter, error) {
	if len(dims) != len(counts) {
		return nil, fmt.Errorf("shard: grid config has %d dims but %d counts", len(dims), len(counts))
	}
	if len(dims) > maxGridDims {
		return nil, fmt.Errorf("shard: grid config splits %d dims, max %d", len(dims), maxGridDims)
	}
	g := &gridRouter{shards: 1}
	seen := make(map[int]bool, len(dims))
	for i, dim := range dims {
		if dim < 0 || dim >= d {
			return nil, fmt.Errorf("shard: grid split dim %d out of range for %d-dim index", dim, d)
		}
		if seen[dim] {
			return nil, fmt.Errorf("shard: grid split dim %d repeated", dim)
		}
		seen[dim] = true
		count := counts[i]
		if count < 1 {
			return nil, fmt.Errorf("shard: grid tile count %d for dim %d", count, dim)
		}
		if count == 1 {
			continue // a 1-tile split contributes nothing; drop it
		}
		if g.shards > maxShardCount/count {
			return nil, fmt.Errorf("shard: grid tile product exceeds %d", maxShardCount)
		}
		lo, hi := bounds.Lo[dim], bounds.Hi[dim]
		edges := make([]float64, count+1)
		width := (hi - lo) / float64(count)
		edges[0] = lo
		for c := 1; c < count; c++ {
			edges[c] = lo + float64(c)*width
		}
		edges[count] = hi
		g.dims = append(g.dims, dim)
		g.edges = append(g.edges, edges)
		g.counts = append(g.counts, count)
		g.shards *= count
	}
	return g, nil
}

// deriveGrid picks the grid geometry for a requested shard count: split over
// the m highest-variance dimensions of the build points (m = 2, or 3 once S
// is large enough that two splits would make tiles too thin), with tile
// counts a near-equal integer factorization of S. The factorization rounds S
// DOWN to the nearest realizable product (e.g. S=10 becomes 3×3 = 9 shards);
// callers observe the effective count via Sharded.NumShards.
func deriveGrid(shards, d int, points []vec.Point) (dims, counts []int) {
	m := 2
	if shards > 32 {
		m = 3
	}
	if m > d {
		m = d
	}
	dims = topVarianceDims(points, d, m)
	counts = make([]int, len(dims))
	rem := shards
	for i := range counts {
		c := intRoot(rem, len(counts)-i)
		counts[i] = c
		rem /= c
	}
	// Largest tile counts go to the highest-variance dimensions (dims are
	// already in descending variance order, counts ascend by construction).
	for i, j := 0, len(counts)-1; i < j; i, j = i+1, j-1 {
		counts[i], counts[j] = counts[j], counts[i]
	}
	return dims, counts
}

// topVarianceDims returns the m dimensions with the largest coordinate
// variance over points, in descending variance order (ties broken by the
// lower dimension index). With no points (empty bootstrap) it falls back to
// the first m dimensions.
func topVarianceDims(points []vec.Point, d, m int) []int {
	variance := make([]float64, d)
	if len(points) > 0 {
		mean := make([]float64, d)
		for _, p := range points {
			for j, v := range p {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(points))
		}
		for _, p := range points {
			for j, v := range p {
				diff := v - mean[j]
				variance[j] += diff * diff
			}
		}
	}
	dims := make([]int, 0, m)
	for len(dims) < m {
		best, bestVar := -1, math.Inf(-1)
		for j := 0; j < d; j++ {
			taken := false
			for _, t := range dims {
				if t == j {
					taken = true
					break
				}
			}
			if !taken && variance[j] > bestVar {
				best, bestVar = j, variance[j]
			}
		}
		dims = append(dims, best)
	}
	return dims
}

// intRoot returns the largest c with c^k <= n (integer arithmetic only;
// math.Pow alone misrounds perfect powers like 64^(1/3)).
func intRoot(n, k int) int {
	if n < 1 {
		return 1
	}
	c := int(math.Pow(float64(n), 1/float64(k)))
	if c < 1 {
		c = 1
	}
	for intPow(c+1, k) <= n {
		c++
	}
	for c > 1 && intPow(c, k) > n {
		c--
	}
	return c
}

func intPow(c, k int) int {
	out := 1
	for i := 0; i < k; i++ {
		out *= c
	}
	return out
}

// newRouter resolves Options into a Router. points (may be nil for empty
// bootstrap) feed the variance-based dimension choice of derived grids.
func newRouter(opts Options, bounds vec.Rect, points []vec.Point) (Router, error) {
	shards := max(opts.Shards, 1)
	switch opts.Route {
	case RouteHash:
		return &hashRouter{shards: shards}, nil
	case RouteGrid:
		d := bounds.Dim()
		dims, counts := deriveGrid(shards, d, points)
		return newGridRouter(d, bounds, dims, counts)
	default:
		return nil, fmt.Errorf("shard: unknown routing policy %d", opts.Route)
	}
}
