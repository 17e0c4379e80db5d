package xtree

import (
	"math"
	"sort"

	"repro/internal/vec"
)

// Neighbor is one result of a (k-)nearest-neighbor query. Dist2 is the
// squared Euclidean distance from the query point to the entry's rectangle.
type Neighbor struct {
	Entry Entry
	Dist2 float64
}

// PointQuery visits every leaf entry whose rectangle contains p; visit
// returns false to stop. With NN-cell approximations stored in the tree, this
// single call answers a nearest-neighbor query. PointQuery and Search are the
// closure reference that PointQueryData and the cell directory's tests are
// compared against.
func (t *Tree) PointQuery(p vec.Point, visit func(Entry) bool) {
	t.searchNode(t.root, func(r vec.Rect) bool { return r.Contains(p) }, visit)
}

// Search visits every leaf entry whose rectangle intersects q.
func (t *Tree) Search(q vec.Rect, visit func(Entry) bool) {
	t.searchNode(t.root, func(r vec.Rect) bool { return r.Intersects(q) }, visit)
}

// searchNode is the generic overlap-driven traversal; pred must be monotone
// (true for a child's rect whenever it is true for a contained rect).
func (t *Tree) searchNode(n *node, pred func(vec.Rect) bool, visit func(Entry) bool) bool {
	t.accessNode(n)
	for i := range n.entries {
		e := &n.entries[i]
		if !pred(e.rect) {
			continue
		}
		if n.level == 0 {
			if !visit(Entry{Rect: e.rect, Data: e.data}) {
				return false
			}
		} else if !t.searchNode(e.child, pred, visit) {
			return false
		}
	}
	return true
}

// VisitLeafRegions visits all entries of every leaf node whose node MBR
// satisfies pred; pred must be monotone under rectangle containment (true for
// a node whenever true for any descendant), which holds for point containment
// and sphere intersection. The paper's "Point" and "Sphere" constraint
// selection algorithms are exactly this: take every data point stored on a
// page whose region contains the query point (or cuts the query sphere).
func (t *Tree) VisitLeafRegions(pred func(vec.Rect) bool, visit func(Entry) bool) {
	if t.size == 0 {
		return
	}
	t.visitLeafRegions(t.root, t.root.mbr(t.dim), pred, visit)
}

func (t *Tree) visitLeafRegions(n *node, region vec.Rect, pred func(vec.Rect) bool, visit func(Entry) bool) bool {
	if !pred(region) {
		return true
	}
	t.accessNode(n)
	if n.level == 0 {
		for i := range n.entries {
			if !visit(Entry{Rect: n.entries[i].rect, Data: n.entries[i].data}) {
				return false
			}
		}
		return true
	}
	for i := range n.entries {
		if !t.visitLeafRegions(n.entries[i].child, n.entries[i].rect, pred, visit) {
			return false
		}
	}
	return true
}

// NearestNeighborDF is the depth-first branch-and-bound nearest-neighbor
// search of Roussopoulos, Kelley and Vincent [RKV 95]: active branch lists
// sorted by MINDIST, pruned with MINMAXDIST. This is the R-tree NN algorithm
// the paper benchmarks against (its CPU cost — sorting nodes by min–max
// distance — is what Fig. 9 attributes the R-tree's slowness to).
func (t *Tree) NearestNeighborDF(q vec.Point) (e Entry, dist2 float64, ok bool) {
	if t.size == 0 {
		return Entry{}, 0, false
	}
	best := math.Inf(1)
	var bestEntry Entry
	t.nnDF(t.root, q, &best, &bestEntry)
	return bestEntry, best, true
}

func (t *Tree) nnDF(n *node, q vec.Point, best *float64, bestEntry *Entry) {
	t.accessNode(n)
	metric := vec.Euclidean{}
	if n.level == 0 {
		for i := range n.entries {
			e := &n.entries[i]
			if d2 := metric.MinDist2(q, e.rect); d2 < *best {
				*best = d2
				*bestEntry = Entry{Rect: e.rect, Data: e.data}
			}
		}
		return
	}
	// Build the active branch list: (MINDIST, MINMAXDIST) per child.
	type branch struct {
		idx              int
		minDist, minMax2 float64
	}
	abl := make([]branch, 0, len(n.entries))
	for i := range n.entries {
		abl = append(abl, branch{
			idx:     i,
			minDist: metric.MinDist2(q, n.entries[i].rect),
			minMax2: vec.MinMaxDist2(q, n.entries[i].rect),
		})
	}
	sort.Slice(abl, func(a, b int) bool { return abl[a].minDist < abl[b].minDist })
	// Downward pruning: a branch whose MINDIST exceeds the smallest
	// MINMAXDIST cannot contain the NN.
	minMinMax := math.Inf(1)
	for _, b := range abl {
		if b.minMax2 < minMinMax {
			minMinMax = b.minMax2
		}
	}
	for _, b := range abl {
		if b.minDist > *best || b.minDist > minMinMax {
			continue
		}
		t.nnDF(n.entries[b.idx].child, q, best, bestEntry)
	}
}
