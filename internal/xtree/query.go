package xtree

import (
	"math"

	"repro/internal/pager"
	"repro/internal/vec"
)

// This file is the zero-allocation query engine: an iterative traversal over
// a reusable explicit node stack plus concrete-typed inline heaps, replacing
// the recursive closure-based paths of search.go on the read hot path. A
// QueryCtx owns all scratch state, so a warm context answers point and
// (k-)nearest-neighbor queries without allocating. Leaf rectangle tests run
// against the flat SoA coordinate mirror maintained by writeNode, scanning
// cache-linearly and pruning dimension-first.

// QueryCtx holds the reusable scratch of the iterative query engine: the
// traversal stack, the best-first node heap and the k-NN result heap. The
// zero value is ready to use; a warm context performs no allocations. A
// QueryCtx is not safe for concurrent use, and at most one traversal may be
// active on it at a time (starting a new query resets the previous one).
type QueryCtx struct {
	t *Tree
	q vec.Point // target of the traversal started by BeginPoint

	stack []*node // nodes not yet visited, top = next
	leaf  *node   // leaf currently being scanned
	li    int     // next position within surv
	surv  []int32 // indices of the current leaf's matching entries

	acc []float64 // per-entry sign accumulator of the leaf scans

	heap  []nnHeapItem   // best-first node queue (min-heap by dist2)
	best  []Neighbor     // k-NN candidates (max-heap by Dist2, root = worst)
	res   []Neighbor     // NearestNeighborCtx result scratch (distinct from best)
	pages []pager.PageID // batched page-access scratch of the one-shot queries
}

// BeginPoint starts an iterative point query for p: subsequent Next calls
// yield every leaf entry whose rectangle contains p, in exactly the order the
// recursive PointQuery visits them.
func (t *Tree) BeginPoint(qc *QueryCtx, p vec.Point) {
	qc.t = t
	qc.q = p
	qc.stack = append(qc.stack[:0], t.root)
	qc.leaf = nil
	qc.li = 0
}

// next advances the traversal to the next matching leaf entry and returns the
// leaf and the entry index. Next and NextData wrap it; NextData skips the
// Entry materialisation (two rect slice headers per hit) on paths that only
// need the payload.
func (qc *QueryCtx) next() (leaf *node, idx int, ok bool) {
	t := qc.t
	d := t.dim
	for {
		if n := qc.leaf; n != nil {
			// Yield the precomputed matches of the current leaf (found by one
			// dimension-first pass over the SoA mirror when it was popped).
			if qc.li < len(qc.surv) {
				i := int(qc.surv[qc.li])
				qc.li++
				return n, i, true
			}
			qc.leaf = nil
		}
		if len(qc.stack) == 0 {
			return nil, 0, false
		}
		n := qc.stack[len(qc.stack)-1]
		qc.stack = qc.stack[:len(qc.stack)-1]
		t.accessNode(n)
		if n.level == 0 {
			qc.matchLeafPoint(n, d, qc.q)
			qc.leaf = n
			qc.li = 0
			continue
		}
		// Push matching children in reverse so the LIFO pop order equals the
		// recursive visit order. The flat predicate on the stored corner
		// slices is the same test as Rect.Contains minus the dimension
		// assertion.
		for i := len(n.entries) - 1; i >= 0; i-- {
			r := &n.entries[i].rect
			if vec.ContainsFlat(qc.q, r.Lo, r.Hi) {
				qc.stack = append(qc.stack, n.entries[i].child)
			}
		}
	}
}

// PointQueryData appends the payload of every leaf entry whose rectangle
// contains p to dst (in recursive PointQuery visit order) and returns it,
// using qc's reusable stack. It answers the same query as BeginPoint/Next but
// as one tight loop: hot paths that resolve matches purely by payload (the
// NN-cell candidate scan) skip the per-entry iterator call and its state
// save/restore entirely. Page accesses are identical to the other paths.
func (t *Tree) PointQueryData(qc *QueryCtx, p vec.Point, dst []int64) []int64 {
	d := t.dim
	qc.leaf = nil
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
	// per-node accounting of the incremental paths.
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
	qc.leaf = nil
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

// Next returns the next matching leaf entry of the traversal started by
// BeginPoint, and ok=false when the traversal is exhausted.
// Page accesses are recorded against the pager exactly as in the recursive
// paths (every visited node once, when it is first scanned).
func (qc *QueryCtx) Next() (e Entry, ok bool) {
	n, i, ok := qc.next()
	if !ok {
		return Entry{}, false
	}
	return Entry{Rect: n.entries[i].rect, Data: n.entries[i].data}, true
}

// NextData is Next reduced to the entry payload, for callers that resolve
// matches by id and never look at the rectangle.
func (qc *QueryCtx) NextData() (data int64, ok bool) {
	n, i, ok := qc.next()
	if !ok {
		return 0, false
	}
	return n.entries[i].data, true
}

// NearestNeighborCtx is the zero-allocation form of NearestNeighbor: the
// best-first search runs on qc's reusable heaps. ok is false on an empty
// tree.
func (t *Tree) NearestNeighborCtx(qc *QueryCtx, q vec.Point) (nb Neighbor, ok bool) {
	qc.res = t.KNearestCtx(qc, q, 1, math.Inf(1), qc.res[:0])
	if len(qc.res) == 0 {
		return Neighbor{}, false
	}
	return qc.res[0], true
}

// KNearestCtx appends the k closest leaf entries to q (increasing distance)
// to out and returns it, running the best-first traversal of [HS 95] on qc's
// reusable concrete-typed heaps — no container/heap boxing, no per-query
// allocations beyond out's own growth (pass a reused slice for none).
//
// bound is an inclusive pruning radius on squared distance: entries and
// subtrees farther than bound are never visited or reported. Pass
// math.Inf(1) for an unbounded search. The out-of-bounds fallback of the
// NN-cell index seeds bound with a clamp-candidate distance, which turns the
// search into a verification descent.
//
// With an infinite bound the traversal performs the same heap operations in
// the same order as the recursive KNearest, so results are identical. out
// must not alias qc's internal scratch slices.
func (t *Tree) KNearestCtx(qc *QueryCtx, q vec.Point, k int, bound float64, out []Neighbor) []Neighbor {
	if k <= 0 || t.size == 0 {
		return out
	}
	qc.heap = append(qc.heap[:0], nnHeapItem{dist2: 0, child: t.root})
	qc.best = qc.best[:0]
	for len(qc.heap) > 0 {
		it := qc.heap[0]
		limit := bound
		if len(qc.best) == k && qc.best[0].Dist2 < limit {
			limit = qc.best[0].Dist2
		}
		if it.dist2 > limit {
			break
		}
		qc.heap = nodeHeapPop(qc.heap)
		n := it.child
		t.accessNode(n)
		for i := range n.entries {
			if n.level == 0 {
				d2 := vec.MinDist2Stride(q, n.flatLo, n.flatHi, i, len(n.entries))
				if d2 > bound {
					continue
				}
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
				if d2 > bound {
					continue
				}
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

// The inline heaps below mirror container/heap's sift algorithms exactly
// (same comparisons, same swap order) on concrete element types, so the
// ctx-based searches reproduce the reference traversal bit for bit while
// avoiding interface{} boxing on every push and pop.

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
