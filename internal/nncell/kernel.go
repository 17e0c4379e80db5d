package nncell

import (
	"math"
	"math/bits"
	"slices"
)

// The kernels of the read path. A directory query is three loops — AND the
// rows of the query's stripes, list the set bits, take the squared distance of
// every listed point — and each is written here once, for every caller, in the
// form that keeps the loop free of read-modify-write passes, data-dependent
// branches and serial add chains (DESIGN.md §17). A k-NN query adds the bound
// compare of its folds and, for its seeds, the lane minima that bound their
// k-th distance (laneMinima), their k-th least and the compaction at it
// (DESIGN.md §19). The Go loops here are the reference and every other
// machine's kernels. On amd64 with AVX2 kernel_amd64.s runs, four lanes wide
// and bit for bit what they compute, the row passes (and4, andNot4), the
// k-th least and the compaction (boundAVX2, compactAVX2) and, at d a multiple
// of four, the walk and the distances fused with what consumes them: the NN
// query's minimum (nearestAVX2) and the bounded fold's lane minima and bound
// compare (boundedAVX2). A caller that needs the survivors' ids with their
// distances takes them from bounded, so the walk and the distances have no
// other assembly form; appendBits and dist2s are plain Go.

// KernelSet names the kernels this process's directory queries run on: "avx2"
// where the CPU and the operating system support AVX2, BMI1 and POPCNT on
// amd64 (kernel_amd64.s: the row passes, the lane minima's k-th least and the
// compaction always; the NN fold and the bounded fold, which walk the bits
// and take the distances, when d is a multiple of four), "go" everywhere
// else. It is chosen once, at start-up.
func KernelSet() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// andRows writes the AND of rows into acc. There is at least one row and each
// holds at least len(acc) words. Four rows are read per pass over acc and the
// first pass writes acc, so d rows cost ⌈d/4⌉ passes and no copy; a last group
// short of four repeats its final row, which an AND does not notice.
func andRows(acc []uint64, rows [][]uint64) {
	n, last := len(acc), len(rows)-1
	for k := 0; k <= last; k += 4 {
		a, b, c, e := rows[k][:n], rows[min(k+1, last)][:n], rows[min(k+2, last)][:n], rows[min(k+3, last)][:n]
		if useAVX2 {
			src := acc
			if k == 0 {
				src = a // a & a = a: the first pass writes acc
			}
			and4(acc, src, a, b, c, e)
			continue
		}
		if k == 0 {
			for w := range acc {
				acc[w] = a[w] & b[w] & c[w] & e[w]
			}
			continue
		}
		for w := range acc {
			acc[w] &= a[w] & b[w] & c[w] & e[w]
		}
	}
}

// andNotRows clears in acc every bit set in one of rows (each at least
// len(acc) words, possibly none), four rows per pass like andRows. With it the
// AND over pairs of hi &^ lo is andRows of the his, then andNotRows of the los.
func andNotRows(acc []uint64, rows [][]uint64) {
	n, last := len(acc), len(rows)-1
	for k := 0; k <= last; k += 4 {
		a, b, c, e := rows[k][:n], rows[min(k+1, last)][:n], rows[min(k+2, last)][:n], rows[min(k+3, last)][:n]
		if useAVX2 {
			andNot4(acc, a, b, c, e)
			continue
		}
		for w := range acc {
			acc[w] &^= a[w] | b[w] | c[w] | e[w]
		}
	}
}

// bitSlack is the room appendBits needs past the last entry: it writes four
// per step whatever the word holds.
const bitSlack = 4

// appendBits appends to list one Neighbor per set bit of set, ascending, its
// ID the bit's position and its Dist2 for dist2s to fill, and returns the
// list. Every word writes its four lowest set bits unconditionally — an
// exhausted word yields position 64, garbage the next word overwrites — and
// advances by its population count, so the walk branches on the data only for
// a word of more than four bits. That is for the set a d = 8 query leaves, 1.4
// bits per word with a quarter of the words empty in no order a predictor
// could learn. A set under one bit per four words (d = 4, or n = 10⁵) is
// nearly all empty words, which cost a skip that predicts instead of four
// writes each; the two ways cross at that density, at 157 and at 1 563 words
// alike. The list holds entries by the population
// count of the sets it has seen (plus bitSlack), not 64 per word: when it must
// grow it takes four times what this set needs, so that a fresh context — the
// pool drops them at every GC — is not grown again by each fuller set it
// meets. The fused folds of kernel_amd64.s walk a set with the same writes.
func appendBits(list []Neighbor, set []uint64) []Neighbor {
	total := onesCount(set)
	n, need := len(list), total+bitSlack
	if cap(list)-n < need {
		list = slices.Grow(list, 4*need)
	}
	list = list[:n+need]
	sparse := 4*total < len(set)
	for w, word := range set {
		if sparse && word == 0 {
			continue
		}
		base, count := w<<6, bits.OnesCount64(word)
		for m := n; ; m += 4 {
			o := list[m : m+4 : m+4]
			o[0].ID = base + bits.TrailingZeros64(word)
			word &= word - 1
			o[1].ID = base + bits.TrailingZeros64(word)
			word &= word - 1
			o[2].ID = base + bits.TrailingZeros64(word)
			word &= word - 1
			o[3].ID = base + bits.TrailingZeros64(word)
			word &= word - 1
			if word == 0 {
				break
			}
		}
		n += count
	}
	return list[:n]
}

// onesCount returns the population count of set.
func onesCount(set []uint64) (total int) {
	for _, word := range set {
		total += bits.OnesCount64(word)
	}
	return total
}

// dist2s sets the Dist2 of every entry of list to the squared distance from q
// to point ID of pts (d = len(q) coordinates per id) and returns the list.
// Four points are taken at a time, each on an accumulator of its own that sums
// the d terms in index order: four independent add chains instead of one, and
// every result the same bits as vec.Dist2Flat's. (The difference is taken as
// coordinate − query, which subtracts from the loaded value without first
// copying the query's; its square is that of query − coordinate exactly.) The
// last group is filled up with copies of the final id, written past the end
// of list — into the room appendBits leaves there, or the list is moved to
// where there is room. An ID past the rows of pts panics before its row is
// read. The fused folds of kernel_amd64.s take one point per ymm lane with
// the same three rounded operations per term.
func dist2s(list []Neighbor, q, pts []float64) []Neighbor {
	n, d := len(list), len(q)
	if n == 0 {
		return list
	}
	padded := (n + 3) &^ 3
	list = slices.Grow(list, 3)[:padded]
	for k := n; k < padded; k++ {
		list[k].ID = list[n-1].ID
	}
	pts = slices.Clip(pts) // an id past the store fails its slice, not reads the spare capacity
	for k := 0; k < padded; k += 4 {
		g := list[k : k+4 : k+4]
		a := pts[g[0].ID*d:][:d]
		b := pts[g[1].ID*d:][:d]
		c := pts[g[2].ID*d:][:d]
		e := pts[g[3].ID*d:][:d]
		var s0, s1, s2, s3 float64
		for j, x := range q {
			t0, t1, t2, t3 := a[j]-x, b[j]-x, c[j]-x, e[j]-x
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		g[0].Dist2, g[1].Dist2, g[2].Dist2, g[3].Dist2 = s0, s1, s2, s3
	}
	return list[:n]
}

// nearest returns the point of set (live ids only) nearest to q, the first
// strictly smaller squared distance in ascending id order so that ties go to
// the smaller id, and the number of points in set; found is false when no
// distance is below +Inf, as for an empty set. With AVX2 and d a multiple of
// four that is one pass of nearestAVX2 — the bits walked, the distances taken
// and the minimum kept without a list between them — which checks every id
// against the rows of pts before reading one; on the go set and at other d it
// is the list of ds.dists (appendBits, dist2s) and a Go minimum, the
// reference the kernel matches bit for bit.
func (ds *dirScratch) nearest(q, pts []float64, set []uint64) (nb Neighbor, count int, found bool) {
	if d := len(q); useAVX2 && d > 0 && d%4 == 0 {
		id, d2, count, ok := nearestAVX2(set, q, pts, len(pts)/d)
		if !ok {
			panic("nncell: nearest: a survivor id is past the coordinate store")
		}
		if id < 0 {
			return Neighbor{}, count, false
		}
		return Neighbor{ID: id, Dist2: d2}, count, true
	}
	cand := ds.dists(q, pts, set)
	at, least := -1, math.Inf(1)
	for i := range cand {
		if d2 := cand[i].Dist2; d2 < least {
			at, least = i, d2
		}
	}
	if at < 0 {
		return Neighbor{}, len(cand), false
	}
	return cand[at], len(cand), true
}

// laneMinima holds, for each of eight lanes — the entries of a candidate list
// at the positions ≡ l (mod 8) — the least Dist2 of the lane at [l] and the
// second least at [8+l], +Inf where the lane has fewer entries. The sixteen
// are the distances of sixteen distinct points of the list (bounded pads no
// lane with a repeated id), which is what makes bound sound.
type laneMinima [16]float64

// vmin and vmax are VMINPD's and VMAXPD's minimum and maximum, the second
// operand whenever the first does not compare below (above) it — a NaN
// included — so that the Go reference takes NaNs where the kernel does.
func vmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func vmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// fold takes list into the lane minima from +Inf, lane l the entries at
// positions ≡ l (mod 8), as the kernel's lanes take them: with s the entry's
// Dist2, second = vmin(second, vmax(least, s)), then least = vmin(least, s).
// A NaN Dist2 turns its lane's minima to NaN, which bound takes as +Inf, so
// that lane then bounds nothing.
func (m *laneMinima) fold(list []Neighbor) {
	for l := range m {
		m[l] = math.Inf(1)
	}
	for p, nb := range list {
		l := p & 7
		m[8+l] = vmin(m[8+l], vmax(m[l], nb.Dist2))
		m[l] = vmin(m[l], nb.Dist2)
	}
}

// bound returns the k-th least of the sixteen minima, +Inf where fewer than k
// are not NaN (so for every k > 16): k distinct points of the list lie within
// it, so the list's k-th distance does not exceed it and an entry farther
// than it cannot be among the list's best k. The minima are squared
// distances, +0 … +Inf or NaN, ordered by their bits — in which +0 … +Inf
// order as their values — with a NaN taken as +Inf, and sorted by insertion:
// sixteen values, where a library sort cost more than the fold saved. With
// AVX2 that is boundAVX2, which counts for each minimum the minima at or
// below it and keeps the least that has k.
func (m *laneMinima) bound(k int) float64 {
	if useAVX2 {
		return boundAVX2(m, k)
	}
	if k > len(m) {
		return math.Inf(1)
	}
	var keys [len(m)]uint64
	for i, v := range m {
		if v != v {
			v = math.Inf(1) // a NaN bounds nothing
		}
		key, j := math.Float64bits(v), i
		for ; j > 0 && key < keys[j-1]; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = key
	}
	return math.Float64frombits(keys[k-1])
}

// bounded lists the points of set (live ids only) whose squared distance from
// q is not above bound — ¬(Dist2 > bound), which a NaN distance or bound also
// passes — ascending by id with their Dist2, and returns the list (in
// ds.cand) and the population count of set. With mins it also takes every
// point of set, before the bound, into mins (laneMinima.fold). pointsWithin
// takes its ball from it at its radius, and CandidatesNearestAppend every
// point of set with its distance at +Inf, both without mins. With AVX2 and
// d a multiple of four that is one pass of boundedAVX2 — the bits walked, the
// distances taken, each group of four compared with the bound and only its
// passing lanes written — which checks every id against the rows of pts
// before reading one; on the go set and at other d it is the list of
// ds.dists (appendBits, dist2s), the minima over it and a compaction without
// branches, the reference the kernel matches bit for bit.
func (ds *dirScratch) bounded(q, pts []float64, set []uint64, bound float64, mins *laneMinima) ([]Neighbor, int) {
	if d := len(q); useAVX2 && d > 0 && d%4 == 0 {
		kept, count, ok := boundedAVX2(set, q, pts, len(pts)/d, bound, ds.cand[:cap(ds.cand)], mins)
		if kept < 0 {
			// Too little room: grow, as appendBits does, to four times the
			// set's bits and the entry the kernel writes past the last kept.
			ds.cand = slices.Grow(ds.cand[:0], 4*(onesCount(set)+1))
			kept, count, ok = boundedAVX2(set, q, pts, len(pts)/d, bound, ds.cand[:cap(ds.cand)], mins)
		}
		if !ok {
			panic("nncell: bounded: a set id is past the coordinate store")
		}
		return ds.cand[:kept], count
	}
	cand := ds.dists(q, pts, set)
	if mins != nil {
		mins.fold(cand)
	}
	if bound == math.Inf(1) {
		return cand, len(cand) // ¬(Dist2 > +Inf) holds for every entry, a NaN too
	}
	return compact(cand, bound), len(cand)
}

// compact moves the entries of list whose Dist2 is not above bound —
// ¬(Dist2 > bound) — to its front, in order, and returns them: each entry is
// written at the next free place, which moves on by one when the entry
// passes, so no branch depends on a distance. With AVX2 that is
// compactAVX2, four entries a step.
func compact(list []Neighbor, bound float64) []Neighbor {
	if useAVX2 {
		return list[:compactAVX2(list, bound)]
	}
	kept := 0
	for _, nb := range list {
		list[kept] = nb
		pass := 0
		if !(nb.Dist2 > bound) {
			pass = 1
		}
		kept += pass
	}
	return list[:kept]
}
