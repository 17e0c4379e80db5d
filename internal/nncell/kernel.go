package nncell

import (
	"math/bits"
	"slices"
)

// The kernels of the read path. A directory query is three loops — AND the
// rows of the query's stripes, list the set bits, take the squared distance of
// every listed point — and each is written here once, for every caller, in the
// form that keeps the loop free of read-modify-write passes, data-dependent
// branches and serial add chains (DESIGN.md §17). On amd64 with AVX2 the row
// passes and the distances run in kernel_amd64.s instead, four lanes wide and
// bit for bit what the Go loops here compute; the Go loops are the reference
// and every other machine's kernels.

// KernelSet names the kernels this process's directory queries run on: "avx2"
// where the CPU and the operating system support AVX2 on amd64
// (kernel_amd64.s: the row passes always, the distances when d is a multiple
// of four), "go" everywhere else. It is chosen once, at start-up.
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
// meets.
func appendBits(list []Neighbor, set []uint64) []Neighbor {
	total := 0
	for _, word := range set {
		total += bits.OnesCount64(word)
	}
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

// dist2s sets the Dist2 of every entry of list to the squared distance from q
// to point ID of pts (d = len(q) coordinates per id) and returns the list.
// Four points are taken at a time, each on an accumulator of its own that sums
// the d terms in index order: four independent add chains instead of one, and
// every result the same bits as vec.Dist2Flat's. (The difference is taken as
// coordinate − query, which subtracts from the loaded value without first
// copying the query's; its square is that of query − coordinate exactly.) The
// last group is filled up with copies of the final id, written past the end
// of list — into the room appendBits leaves there, or the list is moved to
// where there is room. With AVX2 and d a multiple of four the groups go to
// dist2sAVX2, one point per lane and the same three rounded operations per
// term, which checks every ID against the rows of pts before reading one.
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
	if useAVX2 && d > 0 && d%4 == 0 {
		if !dist2sAVX2(list, q, pts, len(pts)/d) {
			panic("nncell: dist2s: a candidate id is past the coordinate store")
		}
		return list[:n]
	}
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
