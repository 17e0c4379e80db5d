package nncell

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// pointDir is the point directory, the index's one neighbour-search
// structure: the k-NN query and the NN fallback run on it, and so do cell
// construction's neighbour pool and pruning ranges and the duplicate check of
// a write. It keeps, for every (dimension j, stripe s) of the cell directory's
// grid, one bitset over point ids, with bit id set iff the point is live and
// stripe(j, p[j]) ≤ s. The rows are cumulative, so the live points whose
// stripe in dimension j lies in [a, b] are le[b] &^ le[a-1] — two row reads
// whatever the width of the range — and the last row of any dimension is the
// live set.
//
// stripe is monotone, so a point with |p[j] − q[j]| ≤ r in every dimension
// has its stripes inside those of q−r and q+r and survives box(q, r): the
// survivors are a superset of the ball of radius r around q, which is all the
// k-NN search needs (DESIGN.md §19).
//
// A bit lives and dies with the point's coordinate row: set where the row is
// written into ptsFlat, cleared where bury poisons it, under the index's write
// lock. The row's codes (codes.go) are written with its bits. A pointDir has
// no lock of its own.
type pointDir struct {
	stripeGrid
	// le[j*stripes+s] is the cumulative bitset of dimension j, stripe s. All
	// rows have the same length, at least ⌈len(points)/64⌉ words.
	le [][]uint64
	// codes are the codes of the points' coordinates (codes.go), which the
	// folds' code bound reads beside ptsFlat; every chunk holds at least as
	// many words as the rows hold ids. A dead id's codes are stale, and never
	// read.
	codes [][]uint64
	// minWidth is the narrowest positive stripe width, the radius a search
	// without a usable seed distance starts from; +Inf when every dimension
	// has zero width.
	minWidth float64
	// side is the geometric mean of the positive data-space extents and dims
	// their number: the cube densityR2 spreads the live points over.
	side float64
	dims int
}

// dirScratch is the scratch of one directory search. seen holds every point
// folded by the passes before the current one or excluded from the search,
// box the survivors of the current pass that are not in seen; cand lists the
// points of the set being walked (appendBits, bounded) with their squared
// distances, as many entries as the fullest set has had bits; hi and lo hold
// the directory rows a pass gathers (cellDir.survivors, pointDir.box): at
// most d upper rows, and d lower ones and the mask; qcodes the query's side
// of the code bound (dirScratch.queryCodes). A QueryCtx and a cellCtx each
// embed one.
type dirScratch struct {
	seen, box []uint64
	cand      []Neighbor
	hi, lo    [][]uint64
	qcodes    []uint64
}

// dists lists the points of set in ds.cand, ascending by id, each with its
// squared distance from q, and returns the list. Callers pass sets of live ids
// only, so the NaN-poisoned tombstone rows of pts are never read.
func (ds *dirScratch) dists(q vec.Point, pts []float64, set []uint64) []Neighbor {
	ds.cand = dist2s(appendBits(ds.cand[:0], set), q, pts)
	return ds.cand
}

// newPointDir returns the directory of the rows of ptsFlat (d coordinates per
// id, a NaN row for a tombstone) on g, sized for exactly that many ids.
func newPointDir(g stripeGrid, ptsFlat []float64) *pointDir {
	d := len(g.lo)
	pd := &pointDir{stripeGrid: g, le: newRows(d, len(ptsFlat)/d), codes: newCodes(d, len(ptsFlat)/d), minWidth: math.Inf(1)}
	logVol := 0.0
	for _, sc := range g.scale {
		if sc > 0 {
			pd.minWidth = min(pd.minWidth, 1/sc)
			logVol += math.Log(stripes / sc)
			pd.dims++
		}
	}
	if pd.dims > 0 {
		pd.side = math.Exp(logVol / float64(pd.dims))
	}
	for id := 0; id*d < len(ptsFlat); id++ {
		if p := ptsFlat[id*d : (id+1)*d]; !math.IsNaN(p[0]) {
			pd.set(id, p)
		}
	}
	return pd
}

// set enters point id at p and writes its codes, growing the rows when id is
// the first of a new word and the codes when it is past them.
func (pd *pointDir) set(id int, p []float64) {
	w, bit := id>>6, uint64(1)<<(id&63)
	growRows(pd.le, w)
	for j, x := range p {
		for _, row := range pd.le[j*stripes+pd.stripe(j, x) : (j+1)*stripes] {
			row[w] |= bit
		}
	}
	pd.putCodes(pd.codes, id, p)
}

// clear removes point id from every row.
func (pd *pointDir) clear(id int) {
	w, mask := id>>6, ^(uint64(1) << (id & 63))
	if w >= len(pd.le[0]) {
		return
	}
	for _, row := range pd.le {
		row[w] &= mask
	}
}

// live is the bitset of the live points. The caller must not change it.
func (pd *pointDir) live() []uint64 { return pd.le[stripes-1] }

// holds reports whether id is a live point; any integer may be asked about.
func (pd *pointDir) holds(id int) bool {
	live := pd.live()
	return id >= 0 && id>>6 < len(live) && live[id>>6]>>(id&63)&1 != 0
}

// box writes into acc (reused when large enough) the live points whose stripe
// lies, in every dimension j, between those of q[j]−r and q[j]+r and whose
// bit is clear in mask (nil: none is masked). whole reports that no dimension
// excluded a stripe, so acc is the live set less mask; an infinite or NaN r
// asks for exactly that.
//
// A dimension with stripes a … b keeps le[b] &^ le[a−1]; over all of them that
// is the AND of the upper rows with every bit of a lower row cleared, so the
// rows are gathered (in ds.hi and ds.lo) and taken four per pass (andRows,
// andNotRows), mask as one more lower row. Every row is a subset of the live
// set, which therefore joins only when no dimension has an upper row to give.
func (pd *pointDir) box(ds *dirScratch, acc []uint64, q vec.Point, r float64, mask []uint64) (_ []uint64, whole bool) {
	acc = sized(acc, len(pd.le[0]))
	hi, lo := ds.hi[:0], ds.lo[:0]
	if r < math.Inf(1) {
		for j := range pd.lo {
			if pd.scale[j] == 0 {
				continue // a zero-width dimension has the one stripe
			}
			a, b := pd.stripe(j, q[j]-r), pd.stripe(j, q[j]+r)
			if b < stripes-1 {
				hi = append(hi, pd.le[j*stripes+b])
			}
			if a > 0 {
				lo = append(lo, pd.le[j*stripes+a-1])
			}
		}
	}
	whole = len(hi)+len(lo) == 0
	if len(hi) == 0 {
		hi = append(hi, pd.live())
	}
	if mask != nil {
		lo = append(lo, mask)
	}
	ds.hi, ds.lo = hi, lo
	andRows(acc, hi)
	andNotRows(acc, lo)
	return acc, whole
}

// densityR2 is the squared radius a search for k of n live points starts from
// when it has no seed distance: half the side of a box expected to hold 2k of
// them, were they spread evenly over the data space. Only a start — search
// grows a radius that finds too few and closes on the k-th distance held — so
// skewed data costs passes, not exactness.
func (pd *pointDir) densityR2(k, n int) float64 {
	if pd.dims == 0 {
		return math.Inf(1)
	}
	r := pd.side * math.Pow(float64(2*k)/float64(n), 1/float64(pd.dims)) / 2
	return r * r
}

// search completes h, the best k (ascending by Less, InsertTopK) of the live
// points nearest to q within limit2 of it, and returns it with the number of
// points it folded, the box passes it took and the distances it took of them
// (bounded: the code bound skips the rest once there is a bound). On entry
// ds.seen, which must span the rows, marks the points not to fold: those h
// already holds the best k of (the read path's seeds) and those the caller
// leaves out (a cell's own point). pts is the coordinate store, 1 ≤ k, r2 the
// squared radius of the first pass and limit2 the squared distance past which
// no point is wanted (+Inf: every point is; a point at limit2 is).
//
// A pass takes the box at r2 — every live point within √r2 of q per dimension,
// a superset of the ball — less the points seen, and folds those within the
// bound: limit2, or the worst held once the list is full, a point at it
// included, since its id may still win. The search is exact once the k held
// are all within r2 and every point within r2 has been seen: an unseen point
// is farther than √r2, hence farther than the worst held, ties included. So a
// list that filled up moves r2 to its k-th distance and one more pass closes
// the search; one that did not doubles the box's volume (from at least one
// stripe width) and tries again; a box at limit2 has seen every point wanted,
// and a box that covers the whole grid every live point. The seen set is
// brought up to date only when another pass follows.
func (pd *pointDir) search(ds *dirScratch, h []Neighbor, k int, q vec.Point, pts []float64, r2, limit2 float64) (_ []Neighbor, folded, passes, dists int) {
	for {
		r2 = min(r2, limit2)
		var whole bool
		ds.box, whole = pd.box(ds, ds.box, q, outwardRadius(r2), ds.seen)
		bound := limit2
		if len(h) == k {
			bound = h[k-1].Dist2
		}
		kept, n, taken := ds.bounded(q, pts, pd, ds.box, bound, nil)
		for _, nb := range kept {
			h, _ = InsertTopK(h, k, nb)
		}
		folded += n
		dists += taken
		passes++
		if whole || r2 >= limit2 || (len(h) == k && h[k-1].Dist2 <= r2) {
			return h, folded, passes, dists
		}
		for w, b := range ds.box {
			ds.seen[w] |= b
		}
		if len(h) == k {
			r2 = h[k-1].Dist2
		} else {
			r2 = max(r2*math.Exp2(2/float64(len(q))), pd.minWidth*pd.minWidth)
		}
	}
}

// outwardRadius returns a radius r such that every point whose computed
// squared distance from the query is at most r2 lies within r of it in every
// dimension, in exact arithmetic, so that q−r and q+r — rounded however —
// bracket its coordinate and monotone stripe keeps it in the box. The relative
// slack covers the roundings of the difference, the square, the sum and the
// root (a few 2⁻⁵³ each); the absolute one covers a difference whose square
// underflowed to less than it should be.
func outwardRadius(r2 float64) float64 {
	return math.Sqrt(r2)*(1+0x1p-40) + 0x1p-500
}

// seedTopK folds the points of set (live ids only) into h, the best k
// ascending by Less, and returns it with the number of points in set. The
// lane minima of the set's distances (bounded with mins) bound its k-th
// distance from above for k ≤ 16 (laneMinima.bound), so only the points
// within that bound — a dozen of the two hundred a d = 8 query sees — are
// compacted and inserted; the rest cannot be among the best k.
func (ds *dirScratch) seedTopK(h []Neighbor, k int, q vec.Point, pts []float64, pd *pointDir, set []uint64) ([]Neighbor, int) {
	var mins laneMinima
	cand, count, _ := ds.bounded(q, pts, pd, set, math.Inf(1), &mins)
	for _, nb := range compact(cand, mins.bound(k)) {
		h, _ = InsertTopK(h, k, nb)
	}
	return h, count
}

// check verifies the directory against the coordinate store: it must equal,
// word for word, the directory a fresh fill of ptsFlat would produce, and hold
// the same codes for every live point.
func (pd *pointDir) check(ptsFlat []float64) error {
	fresh := newPointDir(pd.stripeGrid, ptsFlat)
	if err := compareRows("point", pd.le, fresh.le, "the coordinate store says"); err != nil {
		return err
	}
	for c, chunk := range pd.codes {
		want := fresh.codes[c]
		if len(chunk) < len(want) {
			return fmt.Errorf("nncell: code chunk %d holds %d points, the coordinate store %d", c, len(chunk), len(want))
		}
		for id, w := range want {
			if pd.holds(id) && chunk[id] != w {
				return fmt.Errorf("nncell: code chunk %d of point %d is %#x, its coordinates say %#x", c, id, chunk[id], w)
			}
		}
	}
	return nil
}
