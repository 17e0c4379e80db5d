package xtree

import (
	"math"

	"repro/internal/pager"
	"repro/internal/vec"
)

// This file is the query engine: iterative traversals over a reusable explicit
// node stack, and the one best-first search on concrete-typed heaps. A QueryCtx
// owns all scratch state, so a warm context answers point and
// (k-)nearest-neighbor queries without allocating. Leaf rectangle tests run
// against the flat SoA coordinate mirror maintained by writeNode, scanning
// cache-linearly and pruning dimension-first.

// QueryCtx holds the reusable scratch of the query engine: the traversal
// stack, the best-first node heap and the k-NN result heap. The zero value is
// ready to use; a warm context performs no allocations. A QueryCtx is not safe
// for concurrent use.
type QueryCtx struct {
	stack []*node // nodes not yet visited, top = next
	surv  []int32 // indices of the current leaf's matching entries

	acc []float64 // per-entry sign accumulator of the leaf scans

	heap  []nnHeapItem   // best-first node queue (min-heap by dist2)
	best  []Neighbor     // k-NN candidates (max-heap by Dist2, root = worst)
	res   []Neighbor     // NearestNeighborCtx result scratch (distinct from best)
	pages []pager.PageID // batched page-access scratch of the point queries
}

// nnHeapItem is a node waiting in the best-first queue, at its MINDIST.
type nnHeapItem struct {
	dist2 float64
	child *node
}

// PointQueryData appends the payload of every leaf entry whose rectangle
// contains p to dst (in recursive PointQuery visit order) and returns it,
// using qc's reusable stack. Page accesses are identical to PointQuery's.
func (t *Tree) PointQueryData(qc *QueryCtx, p vec.Point, dst []int64) []int64 {
	d := t.dim
	pages := qc.pages[:0]
	stack := append(qc.stack[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pages = append(pages, n.pages...)
		if n.level == 0 {
			qc.matchLeafPoint(n, d, p)
			for _, i := range qc.surv {
				dst = append(dst, n.entries[i].data)
			}
			continue
		}
		for i := len(n.entries) - 1; i >= 0; i-- {
			r := &n.entries[i].rect
			if vec.ContainsFlat(p, r.Lo, r.Hi) {
				stack = append(stack, n.entries[i].child)
			}
		}
	}
	qc.stack = stack
	// One batched pager call replays the visit-order accesses under a single
	// lock acquisition; counters and LRU state end up exactly as with the
	// per-node accounting of the recursive path.
	qc.pages = pages
	t.pg.AccessRun(pages)
	return dst
}

// NearestCandidate runs a point query for q and resolves it to the closest
// payload directly: every matching leaf entry's payload indexes a coordinate
// table (payload data's point at coords[data*dim : (data+1)*dim], the caller's
// SoA point mirror), and the entry minimizing the squared Euclidean distance
// from q wins, ties broken toward the smaller payload. count reports the
// number of matching entries; ok is false when none matched. Fusing the
// distance fold into the traversal spares the hot NN path the intermediate
// candidate list of PointQueryData and its second pass.
func (t *Tree) NearestCandidate(qc *QueryCtx, q vec.Point, coords []float64) (data int64, d2 float64, count int, ok bool) {
	d := t.dim
	bestData, bestD2 := int64(-1), math.Inf(1)
	pages := qc.pages[:0]
	stack := append(qc.stack[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pages = append(pages, n.pages...)
		if n.level == 0 {
			qc.matchLeafPoint(n, d, q)
			count += len(qc.surv)
			for _, i := range qc.surv {
				id := n.entries[i].data
				c := int(id) * d
				dd := vec.Dist2Flat(q, coords[c:c+d])
				if bestData < 0 || dd < bestD2 || (dd == bestD2 && id < bestData) {
					bestData, bestD2 = id, dd
				}
			}
			continue
		}
		for i := len(n.entries) - 1; i >= 0; i-- {
			r := &n.entries[i].rect
			if vec.ContainsFlat(q, r.Lo, r.Hi) {
				stack = append(stack, n.entries[i].child)
			}
		}
	}
	qc.stack = stack
	qc.pages = pages
	t.pg.AccessRun(pages)
	return bestData, bestD2, count, bestData >= 0
}

// matchLeafPoint fills qc.surv with the indices (ascending, i.e. entry order)
// of n's leaf entries whose rectangle contains p.
//
// The scan is branch-free arithmetic over the dimension-major mirror: per
// dimension, lo <= v && v <= hi is exactly sign(v-lo)*(hi-v) >= 0 for the
// finite coordinates the tree stores (the factors cannot both be negative
// when lo <= hi), and the conjunction over dimensions is a fold with the
// branchless float min. High-dimensional overlap puts per-dimension
// selectivity near 50%, where a comparison branch mispredicts on every other
// entry and costs far more than the two extra multiplies; the sign fold keeps
// the pipeline full and measures ~1.5x faster than the best branchy scan.
func (qc *QueryCtx) matchLeafPoint(n *node, d int, p vec.Point) {
	m := len(n.entries)
	if m == 0 {
		qc.surv = qc.surv[:0]
		return
	}
	if cap(qc.surv) < m {
		qc.surv = make([]int32, 0, 2*m)
		qc.acc = make([]float64, 0, 2*m)
	}
	lo, hi := n.flatLo, n.flatHi
	acc := qc.acc[:m]
	v := p[0]
	for i := range acc {
		acc[i] = (v - lo[i]) * (hi[i] - v)
	}
	for j := 1; j < d; j++ {
		v := p[j]
		base := j * m
		blo := lo[base : base+m]
		bhi := hi[base : base+m]
		for i := 0; i < m; i++ {
			acc[i] = min(acc[i], (v-blo[i])*(bhi[i]-v))
		}
	}
	surv := qc.surv[:m]
	k := 0
	for i := 0; i < m; i++ {
		surv[k] = int32(i)
		if acc[i] >= 0 {
			k++
		}
	}
	qc.acc = acc
	qc.surv = surv[:k]
}

// NearestNeighbor returns the closest leaf entry to q (Euclidean), best-first
// [HS 95]. ok is false on an empty tree.
func (t *Tree) NearestNeighbor(q vec.Point) (e Entry, dist2 float64, ok bool) {
	var qc QueryCtx
	nb, ok := t.NearestNeighborCtx(&qc, q)
	return nb.Entry, nb.Dist2, ok
}

// KNearest returns the k closest leaf entries to q in increasing distance
// order: KNearestCtx on a context of its own.
func (t *Tree) KNearest(q vec.Point, k int) []Neighbor {
	var qc QueryCtx
	return t.KNearestCtx(&qc, q, k, nil)
}

// NearestNeighborCtx is the zero-allocation form of NearestNeighbor: the
// best-first search runs on qc's reusable heaps. ok is false on an empty
// tree.
func (t *Tree) NearestNeighborCtx(qc *QueryCtx, q vec.Point) (nb Neighbor, ok bool) {
	qc.res = t.KNearestCtx(qc, q, 1, qc.res[:0])
	if len(qc.res) == 0 {
		return Neighbor{}, false
	}
	return qc.res[0], true
}

// KNearestCtx appends the k closest leaf entries to q (increasing distance)
// to out and returns it, using the best-first traversal of [HS 95] with a
// bounded result heap: only nodes enter the priority queue; leaf entries
// compete in a size-k max-heap, and traversal stops when the nearest
// unexplored node is farther than the current k-th best candidate. Both heaps
// are qc's — no per-query allocations beyond out's own growth (pass a reused
// slice for none). out must not alias qc's internal scratch slices.
func (t *Tree) KNearestCtx(qc *QueryCtx, q vec.Point, k int, out []Neighbor) []Neighbor {
	if k <= 0 || t.size == 0 {
		return out
	}
	qc.heap = append(qc.heap[:0], nnHeapItem{dist2: 0, child: t.root})
	qc.best = qc.best[:0]
	for len(qc.heap) > 0 {
		it := qc.heap[0]
		if len(qc.best) == k && it.dist2 > qc.best[0].Dist2 {
			break
		}
		qc.heap = nodeHeapPop(qc.heap)
		n := it.child
		t.accessNode(n)
		for i := range n.entries {
			if n.level == 0 {
				d2 := vec.MinDist2Stride(q, n.flatLo, n.flatHi, i, len(n.entries))
				if len(qc.best) < k {
					qc.best = resultHeapPush(qc.best, Neighbor{
						Entry: Entry{Rect: n.entries[i].rect, Data: n.entries[i].data}, Dist2: d2})
				} else if d2 < qc.best[0].Dist2 {
					qc.best[0] = Neighbor{
						Entry: Entry{Rect: n.entries[i].rect, Data: n.entries[i].data}, Dist2: d2}
					resultHeapFix0(qc.best)
				}
			} else {
				d2 := vec.Euclidean{}.MinDist2(q, n.entries[i].rect)
				if len(qc.best) < k || d2 <= qc.best[0].Dist2 {
					qc.heap = nodeHeapPush(qc.heap, nnHeapItem{dist2: d2, child: n.entries[i].child})
				}
			}
		}
	}
	// Drain the max-heap back to front so out is in increasing distance order.
	base := len(out)
	out = append(out, qc.best...)
	for i := len(qc.best) - 1; i >= 0; i-- {
		out[base+i] = qc.best[0]
		qc.best = resultHeapPopRoot(qc.best)
	}
	return out
}

// The two heaps are binary heaps on concrete element types: no interface{}
// boxing on a push or a pop.

// nodeHeapPush appends it and sifts up (min-heap by dist2).
func nodeHeapPush(h []nnHeapItem, it nnHeapItem) []nnHeapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(h[i].dist2 < h[parent].dist2) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// nodeHeapPop removes the minimum element (the caller reads h[0] first).
func nodeHeapPop(h []nnHeapItem) []nnHeapItem {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	h = h[:last]
	siftDownNode(h, 0)
	return h
}

func siftDownNode(h []nnHeapItem, i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist2 < h[j1].dist2 {
			j = j2
		}
		if !(h[j].dist2 < h[i].dist2) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// resultHeapPush appends nb and sifts up (max-heap by Dist2, root = worst).
func resultHeapPush(h []Neighbor, nb Neighbor) []Neighbor {
	h = append(h, nb)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(h[i].Dist2 > h[parent].Dist2) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// resultHeapFix0 restores the heap after the root was replaced in place.
func resultHeapFix0(h []Neighbor) { siftDownResult(h, 0) }

// resultHeapPopRoot removes the maximum element (the caller reads h[0] first).
func resultHeapPopRoot(h []Neighbor) []Neighbor {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	h = h[:last]
	siftDownResult(h, 0)
	return h
}

func siftDownResult(h []Neighbor, i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].Dist2 > h[j1].Dist2 {
			j = j2
		}
		if !(h[j].Dist2 > h[i].Dist2) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
