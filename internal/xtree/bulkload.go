package xtree

import (
	"sort"

	"repro/internal/pager"
)

// BulkLoad builds an X-tree over the given entries with Sort-Tile-Recursive
// packing (Leutenegger et al.): entries are recursively sorted and tiled by
// MBR center, packed into full leaves, and the directory is packed the same
// way bottom-up. Bulk loading produces near-100% node fill and no supernodes
// (splits never run); the result answers queries identically to an
// incrementally built tree and remains fully dynamic afterwards.
func BulkLoad(d int, pg *pager.Pager, opts Options, items []Entry) *Tree {
	return bulkLoad(d, pg, opts, splitBKK, items)
}

// bulkLoad packs the tree the same way under either policy, which only
// matters to the inserts that follow.
func bulkLoad(d int, pg *pager.Pager, opts Options, policy overflowPolicy, items []Entry) *Tree {
	t := newTree(d, pg, opts, policy)
	if len(items) == 0 {
		return t
	}
	leafEntries := make([]entry, len(items))
	for i, it := range items {
		if it.Rect.Dim() != d {
			panic("xtree: BulkLoad entry dimensionality mismatch")
		}
		leafEntries[i] = entry{rect: it.Rect.Clone(), data: it.Data}
	}
	level := 0
	nodes := t.packLevel(leafEntries, level)
	for len(nodes) > 1 {
		level++
		parentEntries := make([]entry, len(nodes))
		for i, n := range nodes {
			parentEntries[i] = entry{rect: n.mbr(d), child: n}
		}
		nodes = t.packLevel(parentEntries, level)
	}
	t.pg.Free(t.root.pages[0])
	t.root = nodes[0]
	t.height = level + 1
	t.size = len(items)
	return t
}

// packLevel groups entries into nodes of the given level using STR tiling,
// then repairs any group below the minimum fill so the structural invariants
// of the dynamic tree keep holding for bulk-loaded trees.
func (t *Tree) packLevel(entries []entry, level int) []*node {
	groups := t.repairFill(strTile(entries, t.baseMax, t.dim, 0))
	nodes := make([]*node, len(groups))
	for i, g := range groups {
		n := t.newNode(level, 1)
		n.entries = g
		t.writeNode(n)
		nodes[i] = n
	}
	return nodes
}

// strTile recursively partitions entries into groups of at most capacity,
// sorting by MBR center along successive dimensions.
func strTile(entries []entry, capacity, d, dim int) [][]entry {
	n := len(entries)
	if n <= capacity {
		return [][]entry{entries}
	}
	sort.SliceStable(entries, func(a, b int) bool {
		ca := (entries[a].rect.Lo[dim] + entries[a].rect.Hi[dim]) / 2
		cb := (entries[b].rect.Lo[dim] + entries[b].rect.Hi[dim]) / 2
		return ca < cb
	})
	if dim == d-1 {
		// Last dimension: chunk sequentially.
		var out [][]entry
		for start := 0; start < n; start += capacity {
			end := start + capacity
			if end > n {
				end = n
			}
			out = append(out, entries[start:end:end])
		}
		return out
	}
	// Number of groups still needed and slabs along this dimension.
	groups := (n + capacity - 1) / capacity
	slabs := int(ceilRoot(float64(groups), d-dim))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (n + slabs - 1) / slabs
	var out [][]entry
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		out = append(out, strTile(entries[start:end:end], capacity, d, dim+1)...)
	}
	return out
}

// repairFill merges-and-resplits any group below the minimum fill with a
// neighbor. A merged group holds fewer than baseMax+minEntries entries, so
// an even two-way split always yields two groups at or above minimum fill
// (minEntries <= baseMax/2).
func (t *Tree) repairFill(groups [][]entry) [][]entry {
	for i := 0; i < len(groups); i++ {
		if len(groups) == 1 || len(groups[i]) >= t.minEntries {
			continue
		}
		j := i - 1
		if i == 0 {
			j = 1
		}
		merged := append(append([]entry(nil), groups[j]...), groups[i]...)
		lo := i
		if j < i {
			lo = j
		}
		groups = append(groups[:lo+1], groups[lo+2:]...)
		if len(merged) <= t.baseMax {
			groups[lo] = merged
		} else {
			half := len(merged) / 2
			groups[lo] = merged[:half:half]
			groups = append(groups, nil)
			copy(groups[lo+2:], groups[lo+1:])
			groups[lo+1] = merged[half:]
		}
		i = lo // re-examine from the merged position
	}
	return groups
}

// ceilRoot returns ceil(x^(1/k)).
func ceilRoot(x float64, k int) float64 {
	if x <= 1 {
		return 1
	}
	lo, hi := 1, 1
	for pow(hi, k) < x {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if pow(mid, k) >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo)
}

func pow(base, exp int) float64 {
	v := 1.0
	for i := 0; i < exp; i++ {
		v *= float64(base)
	}
	return v
}
