// Package rtree implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger [BKSS 90] — the first baseline index of the paper — as a dynamic,
// page-based spatial index for d-dimensional rectangles.
//
// The implementation follows the published algorithm: ChooseSubtree minimizes
// overlap enlargement at the leaf level and area enlargement above it, the
// split chooses its axis by minimum margin sum and its distribution by
// minimum overlap, and the first overflow on each level of an insertion
// triggers a forced reinsert of the 30 % farthest entries. Deletion condenses
// underfull nodes and reinserts their entries.
//
// All structural page accesses are recorded against a pager.Pager so that
// experiments can report page accesses and cache behaviour exactly as the
// paper does. Entries carry arbitrary rectangles, so the same tree serves
// both as the point-data baseline (degenerate rectangles) and as the
// container for NN-cell MBR approximations.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pager"
	"repro/internal/vec"
)

// Entry is a leaf-level record: a rectangle and its user datum (for point
// data, a degenerate rectangle and the point's id).
type Entry struct {
	Rect vec.Rect
	Data int64
}

// Options tune structural parameters. The zero value selects the paper's
// configuration.
type Options struct {
	// MinFillRatio is the minimum node fill m/M. Defaults to 0.4 (R* paper).
	MinFillRatio float64
	// ReinsertRatio is the share of entries removed on forced reinsert.
	// Defaults to 0.3 (R* paper).
	ReinsertRatio float64
	// DisableReinsert turns forced reinsert off (plain overflow split). Used
	// by ablation benchmarks.
	DisableReinsert bool
}

func (o *Options) normalize() {
	if o.MinFillRatio <= 0 || o.MinFillRatio > 0.5 {
		o.MinFillRatio = 0.4
	}
	if o.ReinsertRatio <= 0 || o.ReinsertRatio >= 1 {
		o.ReinsertRatio = 0.3
	}
}

type entry struct {
	rect  vec.Rect
	child *node // nil at the leaf level
	data  int64 // meaningful at the leaf level
}

type node struct {
	page    pager.PageID
	level   int // 0 = leaf
	entries []entry

	// flatLo/flatHi mirror the leaf entry rectangles in a flat dimension-major
	// SoA layout (dimension j of entry i at [j*len(entries)+i]), maintained by
	// writeNode; see the X-tree twin and DESIGN.md §8.
	flatLo, flatHi []float64
}

// syncFlat rebuilds the SoA coordinate mirror of a leaf node. The layout is
// dimension-major: with m entries, dimension j of entry i lives at index
// j*m+i, so a query predicate tests dimension 0 of every entry in one
// contiguous pass and later dimensions only for the entries still alive
// (dimension-first pruning).
//
// capacity is the node's maximum entry count: the mirror is allocated for a
// full node at once (bulk loading packs leaves full, dynamic leaves fill up)
// and never for more, except while an overflowing leaf waits for its split.
func (n *node) syncFlat(d, capacity int) {
	m := len(n.entries)
	want := m * d
	if limit := max(want, capacity*d); cap(n.flatLo) < want || cap(n.flatLo) > limit {
		n.flatLo = make([]float64, 0, limit)
		n.flatHi = make([]float64, 0, limit)
	}
	n.flatLo = n.flatLo[:want]
	n.flatHi = n.flatHi[:want]
	for i := range n.entries {
		lo, hi := n.entries[i].rect.Lo, n.entries[i].rect.Hi
		for j := 0; j < d; j++ {
			n.flatLo[j*m+i] = lo[j]
			n.flatHi[j*m+i] = hi[j]
		}
	}
}

// writeNode records a node mutation's page write; every path that changes an
// entry set ends here, which keeps the leaf SoA mirror in sync.
func (t *Tree) writeNode(n *node) {
	if n.level == 0 {
		n.syncFlat(t.dim, t.maxEntries)
	}
	t.pg.Write(n.page)
}

func (n *node) mbr(dim int) vec.Rect {
	r := vec.EmptyRect(dim)
	for i := range n.entries {
		r.UnionInPlace(n.entries[i].rect)
	}
	return r
}

// Tree is an R*-tree. It is not safe for concurrent mutation; concurrent
// read-only queries are safe only against a quiescent tree.
type Tree struct {
	dim  int
	pg   *pager.Pager
	opts Options

	maxEntries int // M
	minEntries int // m
	root       *node
	height     int // number of levels; root level = height-1
	size       int // leaf entries
}

// EntryBytes returns the on-page size of one entry at dimensionality d: a
// 2·d-coordinate rectangle of float64 plus an 8-byte pointer/datum, matching
// the paper's space accounting ("2·d floats per approximation").
func EntryBytes(d int) int { return 16*d + 8 }

// New creates an empty R*-tree of dimensionality d over the given pager.
// Fanout is derived from the pager's block size; a minimum fanout of 4 is
// enforced so the R* heuristics remain well defined at extreme d.
func New(d int, pg *pager.Pager, opts Options) *Tree {
	if d <= 0 {
		panic("rtree: non-positive dimensionality")
	}
	opts.normalize()
	m := pg.Capacity(EntryBytes(d))
	if m < 4 {
		m = 4
	}
	minE := int(float64(m) * opts.MinFillRatio)
	if minE < 1 {
		minE = 1
	}
	t := &Tree{dim: d, pg: pg, opts: opts, maxEntries: m, minEntries: minE}
	t.root = t.newNode(0)
	t.height = 1
	return t
}

func (t *Tree) newNode(level int) *node {
	n := &node{page: t.pg.Alloc(), level: level}
	t.pg.Write(n.page)
	return n
}

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of leaf entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a single leaf root).
func (t *Tree) Height() int { return t.height }

// MaxEntries returns the node capacity M derived from the page size.
func (t *Tree) MaxEntries() int { return t.maxEntries }

// Bounds returns the MBR of all data, or an empty rectangle for an empty tree.
func (t *Tree) Bounds() vec.Rect {
	if t.size == 0 {
		return vec.EmptyRect(t.dim)
	}
	return t.root.mbr(t.dim)
}

// Insert adds a rectangle with its datum.
func (t *Tree) Insert(r vec.Rect, data int64) {
	if r.Dim() != t.dim {
		panic(fmt.Sprintf("rtree: insert of %d-dim rect into %d-dim tree", r.Dim(), t.dim))
	}
	reinserted := make(map[int]bool)
	t.insertEntry(entry{rect: r.Clone(), data: data}, 0, reinserted)
	t.size++
}

// pendingInsert is an entry waiting to be (re)inserted at a given level.
type pendingInsert struct {
	e     entry
	level int
}

// insertEntry places e at the given level. Forced reinserts do not recurse
// into the tree while an insertion pass is on the stack — evicted entries are
// queued and processed after the current root-to-leaf pass completes, so a
// reinsert-triggered split can never invalidate ancestors held by the
// recursion. The reinserted map is shared across the whole queue, preserving
// the R* rule "reinsert at most once per level per inserted rectangle".
func (t *Tree) insertEntry(e entry, level int, reinserted map[int]bool) {
	queue := []pendingInsert{{e, level}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		split := t.insertAt(t.root, p.e, p.level, reinserted, &queue)
		if split != nil {
			// Root split: grow the tree.
			oldRoot := t.root
			t.root = t.newNode(oldRoot.level + 1)
			t.root.entries = append(t.root.entries,
				entry{rect: oldRoot.mbr(t.dim), child: oldRoot},
				*split)
			t.writeNode(t.root)
			t.height++
		}
	}
}

// insertAt descends from n to the target level and inserts e. It returns a
// non-nil entry if n was split (the new sibling).
func (t *Tree) insertAt(n *node, e entry, level int, reinserted map[int]bool, queue *[]pendingInsert) *entry {
	t.pg.Access(n.page)
	if n.level == level {
		n.entries = append(n.entries, e)
		t.writeNode(n)
		if len(n.entries) > t.maxEntries {
			return t.overflow(n, reinserted, queue)
		}
		return nil
	}
	i := t.chooseSubtree(n, e.rect)
	split := t.insertAt(n.entries[i].child, e, level, reinserted, queue)
	n.entries[i].rect = n.entries[i].child.mbr(t.dim)
	if split != nil {
		n.entries = append(n.entries, *split)
	}
	t.writeNode(n)
	if len(n.entries) > t.maxEntries {
		return t.overflow(n, reinserted, queue)
	}
	return nil
}

// chooseSubtree implements the R* descent rule: at the level directly above
// the leaves, minimize overlap enlargement (ties: area enlargement, then
// area); higher up, minimize area enlargement (ties: area).
func (t *Tree) chooseSubtree(n *node, r vec.Rect) int {
	best := 0
	if n.level == 1 {
		// R* rule with the published optimization for large nodes: compute
		// the exact overlap enlargement only for the 32 candidates with the
		// least area enlargement [BKSS 90, §3.1].
		cand := make([]int, len(n.entries))
		for i := range cand {
			cand[i] = i
		}
		if len(cand) > 32 {
			enl := make([]float64, len(n.entries))
			for i := range n.entries {
				enl[i] = n.entries[i].rect.EnlargedVolume(r) - n.entries[i].rect.Volume()
			}
			sort.Slice(cand, func(a, b int) bool { return enl[cand[a]] < enl[cand[b]] })
			cand = cand[:32]
		}
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		best = cand[0]
		for _, i := range cand {
			ov := t.overlapEnlargement(n, i, r)
			area := n.entries[i].rect.Volume()
			enl := n.entries[i].rect.EnlargedVolume(r) - area
			if ov < bestOverlap ||
				(ov == bestOverlap && enl < bestEnl) ||
				(ov == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		area := n.entries[i].rect.Volume()
		enl := n.entries[i].rect.EnlargedVolume(r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overlapEnlargement computes how much the overlap of entry i with its
// siblings grows when i is enlarged to cover r.
func (t *Tree) overlapEnlargement(n *node, i int, r vec.Rect) float64 {
	enlarged := n.entries[i].rect.Union(r)
	delta := 0.0
	for j := range n.entries {
		if j == i {
			continue
		}
		delta += enlarged.IntersectionVolume(n.entries[j].rect) -
			n.entries[i].rect.IntersectionVolume(n.entries[j].rect)
	}
	return delta
}

// overflow applies OverflowTreatment: forced reinsert the first time a level
// overflows during one insertion, split otherwise.
func (t *Tree) overflow(n *node, reinserted map[int]bool, queue *[]pendingInsert) *entry {
	if !t.opts.DisableReinsert && n != t.root && !reinserted[n.level] {
		reinserted[n.level] = true
		t.reinsert(n, queue)
		return nil
	}
	return t.split(n)
}

// reinsert removes the ReinsertRatio share of entries farthest from the node
// MBR's center and queues them for reinsertion ("far reinsert").
func (t *Tree) reinsert(n *node, queue *[]pendingInsert) {
	p := int(float64(t.maxEntries+1) * t.opts.ReinsertRatio)
	if p < 1 {
		p = 1
	}
	center := n.mbr(t.dim).Center()
	type ranked struct {
		idx  int
		dist float64
	}
	order := make([]ranked, len(n.entries))
	for i := range n.entries {
		c := n.entries[i].rect.Center()
		order[i] = ranked{i, vec.Euclidean{}.Dist2(center, c)}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].dist > order[b].dist })
	removed := make([]entry, 0, p)
	drop := make(map[int]bool, p)
	for _, r := range order[:p] {
		drop[r.idx] = true
	}
	kept := n.entries[:0]
	for i := range n.entries {
		if drop[i] {
			removed = append(removed, n.entries[i])
		} else {
			kept = append(kept, n.entries[i])
		}
	}
	n.entries = kept
	t.writeNode(n)
	for _, e := range removed {
		*queue = append(*queue, pendingInsert{e, n.level})
	}
}

// split implements the R* topological split and returns the new sibling as a
// parent entry. The original node keeps the first group.
func (t *Tree) split(n *node) *entry {
	group1, group2 := t.chooseSplit(n.entries)
	n.entries = group1
	t.writeNode(n)
	sib := t.newNode(n.level)
	sib.entries = group2
	t.writeNode(sib)
	return &entry{rect: sib.mbr(t.dim), child: sib}
}

// chooseSplit picks the split axis by minimum margin sum and the distribution
// by minimum overlap (ties: minimum combined area) [BKSS 90, §4.2].
func (t *Tree) chooseSplit(entries []entry) (g1, g2 []entry) {
	d := t.dim
	m := t.minEntries
	total := len(entries)

	bestAxis, bestMargin := -1, math.Inf(1)
	for axis := 0; axis < d; axis++ {
		for _, byUpper := range []bool{false, true} {
			sorted := sortByAxis(entries, axis, byUpper)
			margin := 0.0
			for k := m; k <= total-m; k++ {
				left, right := groupRects(sorted, k, d)
				margin += left.Margin() + right.Margin()
			}
			if margin < bestMargin {
				bestMargin, bestAxis = margin, axis
			}
		}
	}

	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	var bestSorted []entry
	bestK := -1
	for _, byUpper := range []bool{false, true} {
		sorted := sortByAxis(entries, bestAxis, byUpper)
		for k := m; k <= total-m; k++ {
			left, right := groupRects(sorted, k, d)
			ov := left.IntersectionVolume(right)
			area := left.Volume() + right.Volume()
			if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = ov, area
				bestSorted, bestK = sorted, k
			}
		}
	}
	g1 = append([]entry(nil), bestSorted[:bestK]...)
	g2 = append([]entry(nil), bestSorted[bestK:]...)
	return g1, g2
}

func sortByAxis(entries []entry, axis int, byUpper bool) []entry {
	s := append([]entry(nil), entries...)
	sort.SliceStable(s, func(a, b int) bool {
		if byUpper {
			if s[a].rect.Hi[axis] != s[b].rect.Hi[axis] {
				return s[a].rect.Hi[axis] < s[b].rect.Hi[axis]
			}
			return s[a].rect.Lo[axis] < s[b].rect.Lo[axis]
		}
		if s[a].rect.Lo[axis] != s[b].rect.Lo[axis] {
			return s[a].rect.Lo[axis] < s[b].rect.Lo[axis]
		}
		return s[a].rect.Hi[axis] < s[b].rect.Hi[axis]
	})
	return s
}

func groupRects(sorted []entry, k, d int) (left, right vec.Rect) {
	left = vec.EmptyRect(d)
	right = vec.EmptyRect(d)
	for i := 0; i < k; i++ {
		left.UnionInPlace(sorted[i].rect)
	}
	for i := k; i < len(sorted); i++ {
		right.UnionInPlace(sorted[i].rect)
	}
	return left, right
}

// Delete removes one entry matching (rect, data). It reports whether an entry
// was found. Underfull nodes are condensed and their entries reinserted, per
// the R-tree deletion algorithm.
func (t *Tree) Delete(r vec.Rect, data int64) bool {
	leaf, idx := t.findLeaf(t.root, r, data)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.writeNode(leaf)
	t.size--
	t.condense()
	return true
}

func (t *Tree) findLeaf(n *node, r vec.Rect, data int64) (*node, int) {
	t.pg.Access(n.page)
	if n.level == 0 {
		for i := range n.entries {
			if n.entries[i].data == data && n.entries[i].rect.Equal(r) {
				return n, i
			}
		}
		return nil, -1
	}
	for i := range n.entries {
		if n.entries[i].rect.ContainsRect(r) {
			if leaf, idx := t.findLeaf(n.entries[i].child, r, data); leaf != nil {
				return leaf, idx
			}
		}
	}
	return nil, -1
}

// condense rebuilds the tree spine after a deletion: underfull nodes are
// dissolved and their entries reinserted at their original level; MBRs are
// tightened bottom-up; a non-leaf root with a single child is collapsed.
func (t *Tree) condense() {
	var orphans []struct {
		e     entry
		level int
	}
	var walk func(n *node) bool // returns false if n must be removed
	walk = func(n *node) bool {
		if n.level > 0 {
			kept := n.entries[:0]
			for _, e := range n.entries {
				if walk(e.child) {
					e.rect = e.child.mbr(t.dim)
					kept = append(kept, e)
				}
			}
			n.entries = kept
			t.writeNode(n)
		}
		if n != t.root && len(n.entries) < t.minEntries {
			for _, e := range n.entries {
				orphans = append(orphans, struct {
					e     entry
					level int
				}{e, n.level})
			}
			t.pg.Free(n.page)
			return false
		}
		return true
	}
	walk(t.root)
	for _, o := range orphans {
		reins := make(map[int]bool)
		t.insertEntry(o.e, o.level, reins)
	}
	for t.root.level > 0 && len(t.root.entries) == 1 {
		child := t.root.entries[0].child
		t.pg.Free(t.root.page)
		t.root = child
		t.height--
	}
}

// CheckInvariants validates structural invariants; it is exported for tests
// and returns a descriptive error on the first violation.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *node, level int) error
	walk = func(n *node, level int) error {
		if n.level != level {
			return fmt.Errorf("rtree: node level %d at depth-level %d", n.level, level)
		}
		if len(n.entries) > t.maxEntries {
			return fmt.Errorf("rtree: node with %d > M=%d entries", len(n.entries), t.maxEntries)
		}
		if n != t.root && len(n.entries) < t.minEntries {
			return fmt.Errorf("rtree: non-root node with %d < m=%d entries", len(n.entries), t.minEntries)
		}
		if n.level == 0 {
			if len(n.flatLo) != len(n.entries)*t.dim || len(n.flatHi) != len(n.entries)*t.dim {
				return fmt.Errorf("rtree: leaf SoA mirror holds %d/%d coords for %d entries",
					len(n.flatLo), len(n.flatHi), len(n.entries))
			}
			if limit := t.maxEntries * t.dim; cap(n.flatLo) > limit || cap(n.flatHi) > limit {
				return fmt.Errorf("rtree: leaf SoA mirror allocated for %d/%d coords, a full node holds %d",
					cap(n.flatLo), cap(n.flatHi), limit)
			}
			m := len(n.entries)
			for i := range n.entries {
				for j := 0; j < t.dim; j++ {
					if n.flatLo[j*m+i] != n.entries[i].rect.Lo[j] || n.flatHi[j*m+i] != n.entries[i].rect.Hi[j] {
						return fmt.Errorf("rtree: stale leaf SoA mirror at entry %d dim %d", i, j)
					}
				}
			}
			count += len(n.entries)
			return nil
		}
		for i := range n.entries {
			e := n.entries[i]
			if e.child == nil {
				return fmt.Errorf("rtree: nil child in internal node")
			}
			if !e.rect.Equal(e.child.mbr(t.dim)) {
				return fmt.Errorf("rtree: stale parent MBR at level %d", n.level)
			}
			if err := walk(e.child, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height-1); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d reachable entries", t.size, count)
	}
	return nil
}
