// Package scan provides the brute-force sequential-scan baseline: exact
// nearest-neighbor and k-nearest-neighbor search by reading every data point.
// It serves two purposes: it is the ground truth every index structure is
// tested against, and — per the theoretical results the paper builds on
// [BBKK 97] — it is the performance yardstick that index-based NN search must
// beat in high dimensions.
package scan

import (
	"fmt"
	"sort"

	"repro/internal/pager"
	"repro/internal/vec"
)

// Neighbor is a scan result: a point index and its surrogate distance.
type Neighbor struct {
	Index int
	Dist2 float64
}

// Scanner performs exact sequential NN search over a fixed point set stored
// on simulated pages.
type Scanner struct {
	points  []vec.Point
	metric  vec.Metric
	pg      *pager.Pager
	pages   []pager.PageID
	perPage int
}

// New builds a scanner over points (which it does not copy). The points are
// laid out densely on pages of the given pager for access accounting.
func New(points []vec.Point, metric vec.Metric, pg *pager.Pager) *Scanner {
	if len(points) == 0 {
		panic("scan: empty point set")
	}
	d := points[0].Dim()
	for i, p := range points {
		if p.Dim() != d {
			panic(fmt.Sprintf("scan: point %d has dim %d, want %d", i, p.Dim(), d))
		}
	}
	perPage := pg.Capacity(8*d + 8)
	numPages := (len(points) + perPage - 1) / perPage
	s := &Scanner{
		points:  points,
		metric:  metric,
		pg:      pg,
		pages:   pg.AllocRun(numPages),
		perPage: perPage,
	}
	for _, id := range s.pages {
		pg.Write(id)
	}
	return s
}

// Len returns the number of points.
func (s *Scanner) Len() int { return len(s.points) }

// Point returns the i-th point.
func (s *Scanner) Point(i int) vec.Point { return s.points[i] }

// Nearest returns the index of the closest point to q and its surrogate
// distance. Ties resolve to the lowest index, making results deterministic.
func (s *Scanner) Nearest(q vec.Point) (int, float64) {
	for _, id := range s.pages {
		s.pg.Access(id)
	}
	best, bestIdx := s.metric.Dist2(q, s.points[0]), 0
	for i := 1; i < len(s.points); i++ {
		if d2 := s.metric.Dist2(q, s.points[i]); d2 < best {
			best, bestIdx = d2, i
		}
	}
	return bestIdx, best
}

// KNearest returns the k closest points in increasing distance order (fewer
// if the set is smaller). Ties resolve by index.
func (s *Scanner) KNearest(q vec.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	for _, id := range s.pages {
		s.pg.Access(id)
	}
	all := make([]Neighbor, len(s.points))
	for i, p := range s.points {
		all[i] = Neighbor{Index: i, Dist2: s.metric.Dist2(q, p)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist2 != all[b].Dist2 {
			return all[a].Dist2 < all[b].Dist2
		}
		return all[a].Index < all[b].Index
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
