// Package xtree is the repository's one tree engine. It implements the X-tree
// of Berchtold, Keim and Kriegel [BKK 96] — the paper's main competitor index
// and also the structure in which it stores NN-cell approximations — and, as
// a second overflow policy of the same engine, the R*-tree of Beckmann,
// Kriegel, Schneider and Seeger [BKSS 90], the paper's other baseline. Node
// layout, page accounting, ChooseSubtree, the topological split, bulk
// loading, deletion and every search are shared; the two differ only in what
// an overflowing node does, and the constructor fixes that: New and BulkLoad
// build X-trees, NewRStar an R*-tree.
//
// The X-tree extends the R*-tree for high-dimensional data with two ideas:
//
//   - Overlap-minimal splits: when the topological (R*) split of a directory
//     node would produce groups whose MBRs overlap more than MaxOverlap, the
//     tree instead looks for a split dimension along which the entries can be
//     partitioned with zero overlap (possible for directory nodes because
//     their MBRs arose from recursive splits — the split-history argument of
//     [BKK 96]; this implementation searches all dimensions directly, which
//     finds an overlap-free split whenever the split history would).
//
//   - Supernodes: if the only overlap-free split is hopelessly unbalanced,
//     the node is not split at all but extended to span multiple disk pages.
//     Reading a supernode costs as many page accesses as it has pages, which
//     the pager accounting reflects.
//
// Leaf nodes split with the plain R* topological split.
//
// The R*-tree instead answers the first overflow on each level of one
// insertion with a forced reinsert of the 30 % of the node's entries farthest
// from its center, splits topologically otherwise, and never forms a
// supernode.
//
// All structural page accesses are recorded against a pager.Pager so that
// experiments can report page accesses and cache behaviour exactly as the
// paper does.
package xtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/pager"
	"repro/internal/vec"
)

// Entry is a leaf-level record: a rectangle and its user datum.
type Entry struct {
	Rect vec.Rect
	Data int64
}

// Options tune the X-tree's directory overflow. The zero value selects the
// published defaults.
type Options struct {
	// MaxOverlap is the split-overlap threshold above which the tree tries an
	// overlap-minimal split (and, failing that, creates a supernode).
	// Defaults to 0.2, the value of [BKK 96].
	MaxOverlap float64
	// MaxSupernodePages caps supernode growth; 0 means unlimited.
	MaxSupernodePages int
}

func (o *Options) normalize() {
	if o.MaxOverlap <= 0 || o.MaxOverlap >= 1 {
		o.MaxOverlap = 0.2
	}
}

const (
	// minFillRatio is the minimum node fill m/M of both papers.
	minFillRatio = 0.4
	// reinsertRatio is the share of a node's entries a forced reinsert
	// removes [BKSS 90, §4.3].
	reinsertRatio = 0.3
)

// overflowPolicy is what a node does when it holds more entries than its
// pages take. It is fixed by the constructor.
type overflowPolicy uint8

const (
	// splitBKK is the X-tree: a leaf splits topologically; a directory node
	// tries the topological split, then the overlap-minimal one, and becomes a
	// supernode when neither is acceptable.
	splitBKK overflowPolicy = iota
	// reinsertBKSS is the R*-tree: forced reinsert once per level per
	// insertion, the topological split otherwise.
	reinsertBKSS
)

type entry struct {
	rect  vec.Rect
	child *node
	data  int64
}

type node struct {
	pages   []pager.PageID // >1 for supernodes
	level   int            // 0 = leaf
	entries []entry

	// flatLo/flatHi mirror the leaf entry rectangles in a flat dimension-major
	// SoA layout: dimension j of entry i lives at [j*len(entries)+i].
	// Leaf-only; rebuilt by writeNode whenever the entry set changes, so
	// query-time containment and MinDist² tests scan contiguous memory
	// dimension-first instead of chasing per-entry slice headers (see
	// DESIGN.md §8). A leaf of points (every entry's Lo and Hi bit-equal, as
	// in a data index) keeps one mirror, flatHi being flatLo.
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
//
// While every entry is a point the two halves are one slice; the first entry
// with extent gives flatHi its own storage again.
func (n *node) syncFlat(d, capacity int) {
	m := len(n.entries)
	want := m * d
	limit := max(want, capacity*d)
	fits := func(s []float64) bool { return cap(s) >= want && cap(s) <= limit }
	if !fits(n.flatLo) {
		n.flatLo = make([]float64, 0, limit)
	}
	n.flatLo = n.flatLo[:want]
	if n.allPoints() {
		n.flatHi = n.flatLo
	} else {
		if !fits(n.flatHi) || n.sharesMirror() {
			n.flatHi = make([]float64, 0, limit)
		}
		n.flatHi = n.flatHi[:want]
	}
	for i := range n.entries {
		lo, hi := n.entries[i].rect.Lo, n.entries[i].rect.Hi
		for j := 0; j < d; j++ {
			n.flatLo[j*m+i] = lo[j]
			n.flatHi[j*m+i] = hi[j]
		}
	}
}

// allPoints reports whether every entry's Lo and Hi are bit-equal.
func (n *node) allPoints() bool {
	for i := range n.entries {
		lo, hi := n.entries[i].rect.Lo, n.entries[i].rect.Hi
		for j := range lo {
			if math.Float64bits(lo[j]) != math.Float64bits(hi[j]) {
				return false
			}
		}
	}
	return true
}

// sharesMirror reports whether flatHi is flatLo's storage, not its own.
func (n *node) sharesMirror() bool {
	return cap(n.flatLo) > 0 && cap(n.flatHi) > 0 && &n.flatLo[:1][0] == &n.flatHi[:1][0]
}

func (n *node) isSuper() bool { return len(n.pages) > 1 }

func (n *node) mbr(dim int) vec.Rect {
	r := vec.EmptyRect(dim)
	for i := range n.entries {
		r.UnionInPlace(n.entries[i].rect)
	}
	return r
}

// Tree is an X-tree or, built by NewRStar, an R*-tree. It is not safe for
// concurrent mutation; concurrent read-only queries are safe only against a
// quiescent tree.
type Tree struct {
	dim    int
	pg     *pager.Pager
	opts   Options
	policy overflowPolicy

	baseMax    int // entries per single page (M)
	minEntries int // m for split balance
	root       *node
	height     int
	size       int
	supernodes int // live supernode count (statistics)

	// queue holds the entries one Insert or one condensed orphan still has to
	// place: the entry itself, then whatever forced reinserts evicted.
	// reinserted has bit l set once level l was treated by reinsert during the
	// current queue ([BKSS 90]: at most once per level per inserted rectangle).
	queue      []pendingInsert
	reinserted uint64
}

// pendingInsert is an entry waiting to be (re)inserted at a given level.
type pendingInsert struct {
	e     entry
	level int
}

// EntryBytes returns the on-page size of one entry at dimensionality d: a
// 2·d-coordinate rectangle of float64 plus an 8-byte pointer/datum, matching
// the paper's space accounting ("2·d floats per approximation").
func EntryBytes(d int) int { return 16*d + 8 }

// New creates an empty X-tree of dimensionality d over the given pager.
func New(d int, pg *pager.Pager, opts Options) *Tree {
	return newTree(d, pg, opts, splitBKK)
}

// NewRStar creates an empty R*-tree of dimensionality d over the given pager.
func NewRStar(d int, pg *pager.Pager) *Tree {
	return newTree(d, pg, Options{}, reinsertBKSS)
}

// newTree derives the fanout from the pager's block size; a minimum fanout of
// 4 is enforced so the split heuristics remain well defined at extreme d.
func newTree(d int, pg *pager.Pager, opts Options, policy overflowPolicy) *Tree {
	if d <= 0 {
		panic("xtree: non-positive dimensionality")
	}
	opts.normalize()
	m := pg.Capacity(EntryBytes(d))
	if m < 4 {
		m = 4
	}
	minE := int(float64(m) * minFillRatio)
	if minE < 1 {
		minE = 1
	}
	t := &Tree{dim: d, pg: pg, opts: opts, policy: policy, baseMax: m, minEntries: minE}
	t.root = t.newNode(0, 1)
	t.height = 1
	return t
}

func (t *Tree) newNode(level, pages int) *node {
	n := &node{pages: t.pg.AllocRun(pages), level: level}
	for _, id := range n.pages {
		t.pg.Write(id)
	}
	return n
}

// capacity returns the maximum entry count of n given its page span.
func (t *Tree) capacity(n *node) int { return t.baseMax * len(n.pages) }

// Dim returns the dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of leaf entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels.
func (t *Tree) Height() int { return t.height }

// Supernodes returns the number of live supernodes (an X-tree health metric:
// the tree degrades toward a sequential scan as this grows).
func (t *Tree) Supernodes() int { return t.supernodes }

// MaxEntries returns the single-page node capacity M.
func (t *Tree) MaxEntries() int { return t.baseMax }

// Insert adds a rectangle with its datum.
func (t *Tree) Insert(r vec.Rect, data int64) {
	if r.Dim() != t.dim {
		panic(fmt.Sprintf("xtree: insert of %d-dim rect into %d-dim tree", r.Dim(), t.dim))
	}
	t.insertQueued(entry{rect: r.Clone(), data: data}, 0)
	t.size++
}

// insertQueued places e at the given level and then everything forced
// reinserts evicted on the way. Evicted entries do not recurse into the tree
// while an insertion pass is on the stack: they wait in the queue until the
// current root-to-leaf pass completes, so a reinsert-triggered split can
// never invalidate ancestors held by the recursion.
func (t *Tree) insertQueued(e entry, level int) {
	t.reinserted = 0
	t.queue = append(t.queue[:0], pendingInsert{e, level})
	for i := 0; i < len(t.queue); i++ {
		p := t.queue[i]
		if split := t.insertAt(t.root, p.e, p.level); split != nil {
			// Root split: grow the tree.
			oldRoot := t.root
			t.root = t.newNode(oldRoot.level+1, 1)
			t.root.entries = append(t.root.entries,
				entry{rect: oldRoot.mbr(t.dim), child: oldRoot},
				*split)
			t.writeNode(t.root)
			t.height++
		}
	}
	clear(t.queue) // the scratch must not keep entries of later deletes alive
}

func (t *Tree) accessNode(n *node) { t.pg.AccessRun(n.pages) }

// writeNode records the page writes of a node mutation. Every code path that
// changes a node's entry set ends in writeNode, which makes it the single
// hook keeping the leaf SoA mirror in sync.
func (t *Tree) writeNode(n *node) {
	if n.level == 0 {
		n.syncFlat(t.dim, t.capacity(n))
	}
	for _, id := range n.pages {
		t.pg.Write(id)
	}
}

// insertAt descends from n to the target level and adds e there: a data entry
// at level 0, a subtree entry (a forced-reinsert eviction or a condensed
// orphan) at the level it came from. It returns a non-nil entry if n was
// split (the new sibling).
func (t *Tree) insertAt(n *node, e entry, level int) *entry {
	t.accessNode(n)
	if n.level > level {
		i := t.chooseSubtree(n, e.rect)
		split := t.insertAt(n.entries[i].child, e, level)
		n.entries[i].rect = n.entries[i].child.mbr(t.dim)
		if split != nil {
			n.entries = append(n.entries, *split)
		}
	} else {
		n.entries = append(n.entries, e)
	}
	t.writeNode(n)
	if len(n.entries) > t.capacity(n) {
		return t.overflow(n)
	}
	return nil
}

// chooseSubtree is the R* descent rule (the X-tree inherits it unchanged): at
// the level directly above the leaves, minimize overlap enlargement (ties:
// area enlargement, then area); higher up, minimize area enlargement (ties:
// area).
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

// overflow treats a node holding more entries than its pages take. A data
// node of the X-tree and every node of the R*-tree past its forced reinsert
// split topologically; a directory node of the X-tree follows [BKK 96]:
// topological split if its overlap is acceptable, otherwise overlap-minimal
// split, otherwise supernode extension.
func (t *Tree) overflow(n *node) *entry {
	if t.policy == reinsertBKSS && n != t.root && t.reinserted&(1<<n.level) == 0 {
		t.reinserted |= 1 << n.level
		t.reinsert(n)
		return nil
	}
	g1, g2 := t.topologicalSplit(n.entries)
	if t.policy == reinsertBKSS || n.level == 0 || t.splitOverlap(g1, g2) <= t.opts.MaxOverlap {
		return t.applySplit(n, g1, g2)
	}
	if o1, o2, ok := t.overlapMinimalSplit(n.entries); ok {
		return t.applySplit(n, o1, o2)
	}
	if t.opts.MaxSupernodePages > 0 && len(n.pages) >= t.opts.MaxSupernodePages {
		// Page cap reached: fall back to the topological split despite its
		// overlap, keeping the node bounded.
		return t.applySplit(n, g1, g2)
	}
	t.extendSupernode(n)
	return nil
}

// reinsert removes the reinsertRatio share of entries farthest from the node
// MBR's center and queues them for reinsertion at n's level ("far reinsert").
func (t *Tree) reinsert(n *node) {
	p := int(float64(t.baseMax+1) * reinsertRatio)
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
	drop := make(map[int]bool, p)
	for _, r := range order[:p] {
		drop[r.idx] = true
	}
	kept := n.entries[:0]
	for i := range n.entries {
		if drop[i] {
			t.queue = append(t.queue, pendingInsert{n.entries[i], n.level})
		} else {
			kept = append(kept, n.entries[i])
		}
	}
	n.entries = kept
	t.writeNode(n)
}

// splitOverlap is the Jaccard-style overlap measure of [BKK 96]:
// ‖MBR1 ∩ MBR2‖ / ‖MBR1 ∪ MBR2‖ (union as measure of the set union).
func (t *Tree) splitOverlap(g1, g2 []entry) float64 {
	r1 := vec.EmptyRect(t.dim)
	for i := range g1 {
		r1.UnionInPlace(g1[i].rect)
	}
	r2 := vec.EmptyRect(t.dim)
	for i := range g2 {
		r2.UnionInPlace(g2[i].rect)
	}
	inter := r1.IntersectionVolume(r2)
	if inter == 0 {
		return 0
	}
	union := r1.Volume() + r2.Volume() - inter
	if union <= 0 {
		// Degenerate (zero-volume) MBRs that still intersect: treat as full
		// overlap, the pessimistic choice.
		return 1
	}
	return inter / union
}

// applySplit turns n into group1 and returns a parent entry for a new sibling
// holding group2. Splitting a supernode releases or keeps extra pages so that
// each resulting node spans exactly the pages its entry count requires (a
// split of a large supernode can legitimately yield two smaller supernodes).
func (t *Tree) applySplit(n *node, g1, g2 []entry) *entry {
	wasSuper := n.isSuper()
	n.entries = g1
	t.resizeNode(n, len(g1))
	if wasSuper && !n.isSuper() {
		t.supernodes--
	} else if !wasSuper && n.isSuper() {
		t.supernodes++
	}
	t.writeNode(n)

	sib := t.newNode(n.level, t.pagesFor(len(g2)))
	sib.entries = g2
	if sib.isSuper() {
		t.supernodes++
	}
	t.writeNode(sib)
	return &entry{rect: sib.mbr(t.dim), child: sib}
}

// pagesFor returns how many pages a node with count entries needs.
func (t *Tree) pagesFor(count int) int {
	p := (count + t.baseMax - 1) / t.baseMax
	if p < 1 {
		p = 1
	}
	return p
}

// resizeNode grows or shrinks n's page span to fit count entries.
func (t *Tree) resizeNode(n *node, count int) {
	want := t.pagesFor(count)
	for len(n.pages) > want {
		t.pg.Free(n.pages[len(n.pages)-1])
		n.pages = n.pages[:len(n.pages)-1]
	}
	for len(n.pages) < want {
		id := t.pg.Alloc()
		t.pg.Write(id)
		n.pages = append(n.pages, id)
	}
}

// extendSupernode grows n by one page.
func (t *Tree) extendSupernode(n *node) {
	if !n.isSuper() {
		t.supernodes++
	}
	id := t.pg.Alloc()
	t.pg.Write(id)
	n.pages = append(n.pages, id)
}

// topologicalSplit is the R* split: axis by minimum margin sum, distribution
// by minimum overlap (ties: minimum combined area) [BKSS 90, §4.2].
func (t *Tree) topologicalSplit(entries []entry) (g1, g2 []entry) {
	d := t.dim
	total := len(entries)
	m := t.minEntries
	if 2*m > total {
		m = total / 2
		if m < 1 {
			m = 1
		}
	}

	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < d; axis++ {
		for _, byUpper := range []bool{false, true} {
			sorted := sortByAxis(entries, axis, byUpper)
			prefix, suffix := cumulativeRects(sorted, d)
			margin := 0.0
			for k := m; k <= total-m; k++ {
				margin += prefix[k].Margin() + suffix[k].Margin()
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
		prefix, suffix := cumulativeRects(sorted, d)
		for k := m; k <= total-m; k++ {
			ov := prefix[k].IntersectionVolume(suffix[k])
			area := prefix[k].Volume() + suffix[k].Volume()
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

// cumulativeRects returns prefix[k] = MBR(sorted[:k]) and
// suffix[k] = MBR(sorted[k:]), making every split position O(d) to evaluate.
func cumulativeRects(sorted []entry, d int) (prefix, suffix []vec.Rect) {
	n := len(sorted)
	prefix = make([]vec.Rect, n+1)
	suffix = make([]vec.Rect, n+1)
	prefix[0] = vec.EmptyRect(d)
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i].Union(sorted[i].rect)
	}
	suffix[n] = vec.EmptyRect(d)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1].Union(sorted[i].rect)
	}
	return prefix, suffix
}

// overlapMinimalSplit searches for a dimension along which the entries can be
// partitioned with zero MBR overlap and acceptable balance. It reports
// ok=false when no balanced overlap-free split exists — the supernode case.
func (t *Tree) overlapMinimalSplit(entries []entry) (g1, g2 []entry, ok bool) {
	total := len(entries)
	minFill := t.minEntries
	bestBalance := -1
	var bestSorted []entry
	bestK := -1
	for axis := 0; axis < t.dim; axis++ {
		sorted := sortByAxis(entries, axis, false)
		// prefixMaxHi[k] = max hi over sorted[0..k-1]
		maxHi := math.Inf(-1)
		for k := 1; k < total; k++ {
			if h := sorted[k-1].rect.Hi[axis]; h > maxHi {
				maxHi = h
			}
			if maxHi <= sorted[k].rect.Lo[axis] {
				// Overlap-free in this dimension at position k.
				balance := k
				if total-k < balance {
					balance = total - k
				}
				if balance > bestBalance {
					bestBalance = balance
					bestSorted, bestK = sorted, k
				}
			}
		}
	}
	if bestBalance < minFill {
		return nil, nil, false // unbalanced: prefer a supernode
	}
	g1 = append([]entry(nil), bestSorted[:bestK]...)
	g2 = append([]entry(nil), bestSorted[bestK:]...)
	return g1, g2, true
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

// Delete removes one entry matching (rect, data), condensing underfull
// nodes. It reports whether an entry was found. Condensation walks only
// the root→leaf path of the removed entry — a delete costs O(height ×
// node size), not a full-tree sweep, which is what keeps bulk repair
// (delete+reinsert per recomputed cell fragment) linear instead of
// quadratic at n=10⁵.
func (t *Tree) Delete(r vec.Rect, data int64) bool {
	path := make([]*node, 0, t.height+1)
	leaf, idx := t.findLeaf(t.root, r, data, &path)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.writeNode(leaf)
	t.size--
	t.condensePath(path)
	return true
}

// findLeaf locates the leaf holding (rect, data) and records the node path
// from the root to that leaf (the path is truncated on backtrack, so on
// success it is exactly root..leaf).
func (t *Tree) findLeaf(n *node, r vec.Rect, data int64, path *[]*node) (*node, int) {
	t.accessNode(n)
	*path = append(*path, n)
	if n.level == 0 {
		for i := range n.entries {
			if n.entries[i].data == data && n.entries[i].rect.Equal(r) {
				return n, i
			}
		}
		*path = (*path)[:len(*path)-1]
		return nil, -1
	}
	for i := range n.entries {
		if n.entries[i].rect.ContainsRect(r) {
			if leaf, idx := t.findLeaf(n.entries[i].child, r, data, path); leaf != nil {
				return leaf, idx
			}
		}
	}
	*path = (*path)[:len(*path)-1]
	return nil, -1
}

// condensePath restores the tree invariants along one root→leaf path after
// an entry removal, bottom-up: an underfull node is freed and its entries
// reinserted at their level; otherwise the parent entry's MBR is tightened,
// and the walk stops early once an ancestor's stored MBR is already exact
// (nothing above it can have changed). Supernodes that shrank back under
// single-page capacity revert along the way.
func (t *Tree) condensePath(path []*node) {
	var orphans []pendingInsert
	for i := len(path) - 1; i > 0; i-- {
		n, parent := path[i], path[i-1]
		j := -1
		for k := range parent.entries {
			if parent.entries[k].child == n {
				j = k
				break
			}
		}
		if j < 0 {
			panic("xtree: condense path node missing from its parent")
		}
		if len(n.entries) < t.minEntries {
			for _, e := range n.entries {
				orphans = append(orphans, pendingInsert{e, n.level})
			}
			t.freeNode(n)
			parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
			t.writeNode(parent)
			continue
		}
		t.revertSupernode(n)
		nm := n.mbr(t.dim)
		if parent.entries[j].rect.Equal(nm) {
			break // stored MBR already exact; ancestors unchanged
		}
		parent.entries[j].rect = nm
		t.writeNode(parent)
	}
	t.revertSupernode(t.root)
	for _, o := range orphans {
		t.insertQueued(o.e, o.level)
	}
	for t.root.level > 0 && len(t.root.entries) == 1 {
		child := t.root.entries[0].child
		t.freeNode(t.root)
		t.root = child
		t.height--
	}
}

// revertSupernode frees trailing supernode pages once the entry count fits
// in fewer pages again.
func (t *Tree) revertSupernode(n *node) {
	for n.isSuper() && len(n.entries) <= t.baseMax*(len(n.pages)-1) {
		t.pg.Free(n.pages[len(n.pages)-1])
		n.pages = n.pages[:len(n.pages)-1]
		if !n.isSuper() {
			t.supernodes--
		}
	}
}

func (t *Tree) freeNode(n *node) {
	if n.isSuper() {
		t.supernodes--
	}
	for _, id := range n.pages {
		t.pg.Free(id)
	}
}

// Release returns every page of the tree to the pager. It changes no node, so
// it does not race with a reader still inside a query, but a query started
// afterwards touches a freed page and panics in the pager: the tree must not
// be used again.
func (t *Tree) Release() {
	var walk func(n *node)
	walk = func(n *node) {
		for i := range n.entries {
			if c := n.entries[i].child; c != nil {
				walk(c)
			}
		}
		for _, id := range n.pages {
			t.pg.Free(id)
		}
	}
	walk(t.root)
}

// CheckInvariants validates the structure for tests.
func (t *Tree) CheckInvariants() error {
	count := 0
	supers := 0
	var walk func(n *node, level int) error
	walk = func(n *node, level int) error {
		if n.level != level {
			return fmt.Errorf("xtree: node level %d at depth-level %d", n.level, level)
		}
		if len(n.pages) < 1 {
			return fmt.Errorf("xtree: node without pages")
		}
		if n.isSuper() {
			supers++
		}
		if len(n.entries) > t.capacity(n) {
			return fmt.Errorf("xtree: node with %d entries exceeds capacity %d", len(n.entries), t.capacity(n))
		}
		if n != t.root && len(n.entries) < t.minEntries {
			return fmt.Errorf("xtree: non-root node with %d < m=%d entries", len(n.entries), t.minEntries)
		}
		if n.level == 0 {
			if len(n.flatLo) != len(n.entries)*t.dim || len(n.flatHi) != len(n.entries)*t.dim {
				return fmt.Errorf("xtree: leaf SoA mirror holds %d/%d coords for %d entries",
					len(n.flatLo), len(n.flatHi), len(n.entries))
			}
			if limit := t.capacity(n) * t.dim; cap(n.flatLo) > limit || cap(n.flatHi) > limit {
				return fmt.Errorf("xtree: leaf SoA mirror allocated for %d/%d coords, a full node holds %d",
					cap(n.flatLo), cap(n.flatHi), limit)
			}
			if pts, shared := n.allPoints(), n.sharesMirror(); pts != shared && len(n.entries) > 0 {
				return fmt.Errorf("xtree: leaf of points: %v, but its SoA mirror is shared: %v", pts, shared)
			}
			m := len(n.entries)
			for i := range n.entries {
				for j := 0; j < t.dim; j++ {
					if n.flatLo[j*m+i] != n.entries[i].rect.Lo[j] || n.flatHi[j*m+i] != n.entries[i].rect.Hi[j] {
						return fmt.Errorf("xtree: stale leaf SoA mirror at entry %d dim %d", i, j)
					}
				}
			}
			count += len(n.entries)
			return nil
		}
		for i := range n.entries {
			e := n.entries[i]
			if e.child == nil {
				return fmt.Errorf("xtree: nil child in directory node")
			}
			if !e.rect.Equal(e.child.mbr(t.dim)) {
				return fmt.Errorf("xtree: stale parent MBR at level %d", n.level)
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
		return fmt.Errorf("xtree: size %d but %d reachable entries", t.size, count)
	}
	if supers != t.supernodes {
		return fmt.Errorf("xtree: supernode counter %d but %d found", t.supernodes, supers)
	}
	return nil
}
