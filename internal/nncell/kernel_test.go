package nncell

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/vec"
)

// avx2Available is whether this CPU runs the AVX2 kernels, read before any
// test switches them.
var avx2Available = cpu.AVX2

var kernelFlag = flag.String("kernel", "", "go: run the package's tests on the portable Go kernels, not the CPU's best")

// TestMain applies -kernel: `go test ./internal/nncell/ -args -kernel=go`
// runs the whole suite on the portable kernels.
func TestMain(m *testing.M) {
	flag.Parse()
	switch *kernelFlag {
	case "":
	case "go":
		cpu.AVX2 = false
	default:
		fmt.Fprintf(os.Stderr, "-kernel=%s: the one set to force is go\n", *kernelFlag)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// kernelSets lists the kernel sets this CPU runs, the portable one first.
func kernelSets() []string {
	if avx2Available {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// useKernelSet switches the directory kernels to set and returns the call
// that switches them back.
func useKernelSet(set string) (restore func()) {
	saved := cpu.AVX2
	cpu.AVX2 = set == "avx2"
	return func() { cpu.AVX2 = saved }
}

// forKernelSets runs f as one subtest per kernel set the CPU runs.
func forKernelSets(t *testing.T, f func(t *testing.T)) {
	for _, set := range kernelSets() {
		t.Run("kernel="+set, func(t *testing.T) {
			defer useKernelSet(set)()
			f(t)
		})
	}
}

func randRows(rng *rand.Rand, n, words int) [][]uint64 {
	rows := make([][]uint64, n)
	for k := range rows {
		rows[k] = make([]uint64, words+rng.Intn(2)) // a row may be longer than acc
		for w := range rows[k] {
			rows[k][w] = rng.Uint64() | rng.Uint64() // dense, so the AND of many rows keeps bits
		}
	}
	return rows
}

// The fused row passes against one row at a time, on every kernel set: andRows
// for 1–17 rows — every count of full four-row passes with a 3-, 2- and 1-row
// tail — over 0–9 words (none, one and two whole 256-bit steps, each with
// every tail of 1–3 words), and the point directory's form, the AND over pairs of hi &^ lo, with
// 0–17 lower rows (fewer, as many and more than upper ones, odd counts among
// them) cleared by andNotRows.
func TestRowKernelsMatchNaive(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for words := 0; words <= 9; words++ {
			for nHi := 1; nHi <= 17; nHi++ {
				hi := randRows(rng, nHi, words)
				want := make([]uint64, words)
				for w := range want {
					want[w] = ^uint64(0)
					for _, row := range hi {
						want[w] &= row[w]
					}
				}
				acc := make([]uint64, words)
				for w := range acc {
					acc[w] = rng.Uint64() // the first pass must write, not narrow
				}
				andRows(acc, hi)
				if !slices.Equal(acc, want) {
					t.Fatalf("andRows of %d rows, %d words: %x, want %x", nHi, words, acc, want)
				}
				for nLo := 0; nLo <= 17; nLo++ {
					lo := randRows(rng, nLo, words)
					for k := range lo {
						for w := range lo[k] {
							lo[k][w] &= rng.Uint64() & rng.Uint64() // sparse, so something is left
						}
					}
					got, pairs := slices.Clone(want), slices.Clone(want)
					andNotRows(got, lo)
					for w := range pairs {
						for _, row := range lo {
							pairs[w] &= want[w] &^ row[w]
						}
					}
					if !slices.Equal(got, pairs) {
						t.Fatalf("andNotRows of %d rows after %d, %d words: %x, want %x", nLo, nHi, words, got, pairs)
					}
				}
			}
		}
	})
}

// wordWithBits returns a word with exactly n set bits, the lowest and the
// highest bit among them when n ≥ 2.
func wordWithBits(rng *rand.Rand, n int) uint64 {
	var word uint64
	if n >= 2 {
		word = 1 | 1<<63
	}
	for bits.OnesCount64(word) < n {
		word |= 1 << rng.Intn(64)
	}
	return word
}

// ids returns the ids of a candidate list.
func ids(list []Neighbor) []int {
	out := make([]int, len(list))
	for k, nb := range list {
		out[k] = nb.ID
	}
	return out
}

// naiveNearest is the NN fold a bit at a time: the set bits in ascending
// order, each point's Dist2Flat, the first strictly smaller one kept.
func naiveNearest(set []uint64, q, pts []float64) (nb Neighbor, count int, found bool) {
	d, least := len(q), math.Inf(1)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			count++
			if d2 := vec.Dist2Flat(q, pts[id*d:(id+1)*d]); d2 < least {
				nb, least, found = Neighbor{ID: id, Dist2: d2}, d2, true
			}
		}
	}
	return nb, count, found
}

// codesDir returns a point directory that holds only the codes of the rows of
// pts (bounds.Dim() coordinates each) on the grid of bounds: what the folds
// read beside pts.
func codesDir(bounds vec.Rect, pts []float64) *pointDir {
	d := bounds.Dim()
	pd := &pointDir{stripeGrid: newStripeGrid(bounds), codes: newCodes(d, len(pts)/d)}
	for id := range len(pts) / d {
		pd.putCodes(pd.codes, id, pts[id*d:(id+1)*d])
	}
	return pd
}

// codeBound returns B of point id against the query's codes qc
// (queryCodes: q + 1, then q − 1 a chunk): the model of the kernels' bound,
// a code at a time.
func codeBound(codes [][]uint64, id int, qc []uint64) int32 {
	var b int32
	for c, chunk := range codes {
		for k := 0; k < 64; k += 8 {
			code, hi, lo := int32(uint8(chunk[id]>>k)), int32(uint8(qc[2*c]>>k)), int32(uint8(qc[2*c+1]>>k))
			t := min(max(code-hi, lo-code, 0), 127)
			b += t * t
		}
	}
	return b
}

// queryCodes is the model of queryCodesAVX2: it writes into dst (reused when
// large enough) the query's side of the code bound, two words a chunk: q's
// codes plus one, then minus one, both saturating, with 255 and 0 past d. It
// returns them with the factor of limit, +Inf where no codes are kept at d or
// q has a NaN coordinate.
func (g stripeGrid) queryCodes(dst []uint64, q []float64) ([]uint64, float64) {
	n := 2 * codeChunks(len(q))
	if n == 0 {
		return dst[:0], math.Inf(1)
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	inv := g.inv
	lows, scales := g.lo[:len(q)], g.scale[:len(q)]
	hi, lo := ^uint64(0), uint64(0)
	for j, x := range q {
		code := codeOf(x, lows[j], scales[j])
		if x != x {
			inv = math.Inf(1)
		}
		shift := uint(j&7) * 8
		hi = hi&^(0xff<<shift) | uint64(max(code, code+1))<<shift // code + 1, saturating
		lo |= uint64(min(code, code-1)) << shift                  // code − 1, saturating
		if j&7 == 7 || j == len(q)-1 {
			dst[j>>3*2], dst[j>>3*2+1] = hi, lo
			hi, lo = ^uint64(0), 0
		}
	}
	return dst, inv
}

// cube returns [lo, hi]^d.
func cube(d int, lo, hi float64) vec.Rect {
	r := vec.EmptyRect(d)
	for j := range d {
		r.Lo[j], r.Hi[j] = lo, hi
	}
	return r
}

// checkNearest compares the NN fold of set on the kernel set in use
// (dirScratch.nearest, the codes of pts in pd) with naiveNearest: id, Dist2
// bits, count and found; it took at most count distances.
func checkNearest(t *testing.T, ds *dirScratch, set []uint64, q, pts []float64, pd *pointDir) {
	t.Helper()
	nb, count, dists, found := ds.nearest(q, pts, pd, set)
	want, wantCount, wantFound := naiveNearest(set, q, pts)
	if nb.ID != want.ID || math.Float64bits(nb.Dist2) != math.Float64bits(want.Dist2) || count != wantCount || found != wantFound || dists > count {
		t.Fatalf("d=%d, %d words, %d bits: nearest %v (%x), %d (%d distances), %v; a bit at a time %v (%x), %d, %v",
			len(q), len(set), wantCount, nb, math.Float64bits(nb.Dist2), count, dists, found,
			want, math.Float64bits(want.Dist2), wantCount, wantFound)
	}
}

// randomSet returns a set of up to maxWords words, each empty (often in runs
// of four and more) or holding one of counts bits.
func randomSet(rng *rand.Rand, maxWords int, counts []int) []uint64 {
	set := make([]uint64, rng.Intn(maxWords+1))
	for w := 0; w < len(set); w++ {
		switch rng.Intn(4) {
		case 0:
			w += rng.Intn(9) // a run of empty words
		default:
			set[w] = wordWithBits(rng, counts[rng.Intn(len(counts))])
		}
	}
	return set
}

// appendBits and the NN fold against the bit-at-a-time walks. The sets: words
// of 0, 1, 4, 5, 8, 9 and 64 bits — nothing, one step partly used, one and
// two steps exactly full and one past them, the densest word — in every
// order of two, as they are (the walk that takes every word) and among a
// thousand empty words (the walks that skip them), the empty set, and sets of
// up to 60 words with runs of empty ones, enough bits to drain the fold's
// buffer several times and every length modulo its blocks of four.
// appendBits, plain Go, appends to an empty list, to a non-empty one with
// room, and to one that must grow. The fold runs on every kernel set at d =
// 4, 8, 12 and 16 (on AVX2 the fused kernel) and 6 (the Go path), on
// coordinates of a coarse grid, so that many points tie, in every lane.
func TestAppendBitsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	counts := []int{0, 1, 4, 5, 8, 9, 64}
	var sets [][]uint64
	for _, a := range counts {
		sets = append(sets, []uint64{wordWithBits(rng, a)})
		for _, b := range counts {
			sets = append(sets, []uint64{wordWithBits(rng, a), 0, wordWithBits(rng, b)})
		}
	}
	for _, set := range sets[:len(sets):len(sets)] {
		sets = append(sets, slices.Concat(make([]uint64, 500), set, make([]uint64, 500)))
	}
	sets = append(sets, nil)
	for range 60 {
		sets = append(sets, randomSet(rng, 60, counts))
	}
	for _, set := range sets {
		var want []int
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				want = append(want, w<<6|bits.TrailingZeros64(word))
			}
		}
		roomy := append(make([]Neighbor, 0, 4096), Neighbor{ID: -7, Dist2: 7}, Neighbor{ID: -8, Dist2: 8})
		for name, prefix := range map[string][]Neighbor{
			"empty": nil,
			"roomy": roomy,
			"tight": slices.Clip([]Neighbor{{ID: -7, Dist2: 7}, {ID: -8, Dist2: 8}, {ID: -9}}),
		} {
			got := appendBits(prefix, set)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(ids(got[len(prefix):]), want) {
				t.Fatalf("set %x after a %s list: %v, want %v then ids %v", set, name, got, prefix, want)
			}
			if cap(got)-len(got) < 3 {
				t.Fatalf("set %x after a %s list: %d spare entries, dist2s pads into 3", set, name, cap(got)-len(got))
			}
			if name == "roomy" && &got[0] != &roomy[0] {
				t.Fatalf("set %x: a list with room was reallocated", set)
			}
		}
	}
	grid := make([]float64, 64*1003*16)
	for i := range grid {
		grid[i] = float64(rng.Intn(3))
	}
	dirs := map[int]*pointDir{}
	for _, d := range []int{4, 6, 8, 12, 16} {
		dirs[d] = codesDir(cube(d, 0, 2), grid)
	}
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		var ds dirScratch
		for _, set := range sets {
			for _, d := range []int{4, 6, 8, 12, 16} {
				q := make([]float64, d)
				for j := range q {
					q[j] = float64(rng.Intn(3))
				}
				checkNearest(t, &ds, set, q, grid[:64*len(set)*d], dirs[d])
			}
		}
	})
}

// The candidate list holds entries by the bits of the set (four times that and
// the slack, when it has to grow), not 64 per word: a sparse set over many
// words must not reserve the lot.
func TestAppendBitsSizedByPopulation(t *testing.T) {
	set := make([]uint64, 1024)
	set[3], set[700] = 1<<9|1<<40, 1<<63
	list := appendBits(nil, set)
	if !slices.Equal(ids(list), []int{3<<6 | 9, 3<<6 | 40, 700<<6 | 63}) {
		t.Fatalf("ids %v", ids(list))
	}
	if cap(list) > 4*(3+bitSlack)+4 { // + what the allocator's size class rounds up
		t.Fatalf("3 bits in %d words reserved %d entries", len(set), cap(list))
	}
}

// dist2s is vec.Dist2Flat to the bit — not within a tolerance: the directory
// query, the paged query and the scan must agree on every Dist2 — for d below,
// at and past the group of four and list lengths 0–70 (every tail of the
// groups of four), with and without room behind the list for the padding,
// which must not disturb the ids. dist2s is plain Go on every kernel set; the
// subtests pin that the choice of set leaves it so.
func TestDist2sMatchesDist2FlatBits(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		const n = 40
		for _, d := range []int{1, 2, 3, 4, 8, 12, 16, 17, 20, 24} {
			pts := make([]float64, n*d)
			for i := range pts {
				pts[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
			}
			q := make(vec.Point, d)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			for length := 0; length <= 70; length++ {
				for _, room := range []int{0, 1, 3, 8} {
					list := make([]Neighbor, length, length+room)
					for k := range list {
						list[k] = Neighbor{ID: rng.Intn(n), Dist2: math.NaN()}
					}
					before := ids(list)
					list = dist2s(list, q, pts)
					if !slices.Equal(ids(list), before) {
						t.Fatalf("d=%d: ids %v, were %v", d, ids(list), before)
					}
					for k, nb := range list {
						want := vec.Dist2Flat(q, pts[nb.ID*d:(nb.ID+1)*d])
						if math.Float64bits(nb.Dist2) != math.Float64bits(want) {
							t.Fatalf("d=%d, list of %d, entry %d (id %d): %x, Dist2Flat says %x",
								d, length, k, nb.ID, math.Float64bits(nb.Dist2), math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// Ties through the lanes: the 2d axis neighbours of the centre of a d-cube
// lattice are all at squared distance 1/16 exactly, and so are candidates of
// a query there. Wherever they stand in the id list — four of them inside one
// group of four, or spread over two — NearestNeighbor returns the smallest id
// and KNearest lists them ascending by id, cutting a tie at k toward the
// smaller ids; a scan in id order is the reference. d = 3 folds on the Go
// loop, d = 4 on the assembly lanes where the CPU has them.
func TestLaneTiesGoToSmallerID(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		for _, d := range []int{3, 4} {
			q := make(vec.Point, d)
			for j := range q {
				q[j] = 0.5
			}
			var tied, far []vec.Point
			for j := 0; j < d; j++ {
				for _, off := range []float64{-0.25, 0.25} {
					p := slices.Clone(q)
					p[j] += off
					tied = append(tied, p)
				}
			}
			for i := 0; i < 1<<d; i++ {
				p := make(vec.Point, d)
				for j := range p {
					p[j] = float64(i >> (d - 1 - j) & 1)
				}
				far = append(far, p)
			}
			// The tied points first (list positions 0–2d−1: one full group and
			// the next), after three and after five far points, and interleaved
			// with them.
			orders := [][]vec.Point{
				slices.Concat(tied, far),
				slices.Concat(far[:3], tied, far[3:]),
				slices.Concat(far[:5], tied, far[5:]),
				nil,
			}
			for k := range far {
				orders[3] = append(orders[3], far[k])
				if k < len(tied) {
					orders[3] = append(orders[3], tied[k])
				}
			}
			oneGroup, twoGroups := false, false
			for _, pts := range orders {
				for _, alg := range []Algorithm{Correct, NNDirection} {
					ix := mustBuild(t, pts, Options{Algorithm: alg})
					var want []Neighbor
					for id, p := range pts {
						if d2 := vec.Dist2Flat(q, p); d2 == 0.0625 {
							want = append(want, Neighbor{ID: id, Dist2: d2})
						}
					}
					if len(want) != len(tied) {
						t.Fatalf("d=%d: %d tied points, want %d", d, len(want), len(tied))
					}
					// Where the tied ids stand in the list the kernels walk.
					list := ids(appendBits(nil, ix.dir.survivors(new(dirScratch), nil, q)))
					groups := map[int]int{}
					for _, nb := range want {
						at := slices.Index(list, nb.ID)
						if at < 0 {
							t.Fatalf("d=%d, %v: tied id %d is no candidate (%v)", d, alg, nb.ID, list)
						}
						groups[at/4]++
					}
					for _, c := range groups {
						oneGroup = oneGroup || c == 4
					}
					twoGroups = twoGroups || len(groups) >= 2

					nb, err := ix.NearestNeighbor(q)
					if err != nil || nb != want[0] {
						t.Fatalf("d=%d, %v: NearestNeighbor = %+v, %v; want %+v (candidates %v)", d, alg, nb, err, want[0], list)
					}
					for _, k := range []int{1, 3, 4, 5, 6} {
						got, err := ix.KNearest(q, k)
						if err != nil || !slices.Equal(got, want[:k]) {
							t.Fatalf("d=%d, %v: KNearest(%d) = %+v, %v; want %+v", d, alg, k, got, err, want[:k])
						}
					}
				}
			}
			if !oneGroup || !twoGroups {
				t.Fatalf("d=%d: ties inside one group of four: %v, across groups: %v — the layouts miss a case", d, oneGroup, twoGroups)
			}
		}

		// The fold's lanes directly: of 2–5 tied points among 300 farther
		// ones, wherever they stand — one lane, neighbouring lanes, two groups
		// of four, two drains of the fused kernel apart — the smallest id
		// wins, at d = 4, 8, 12, 16 and on the Go path at d = 6.
		rng := rand.New(rand.NewSource(37))
		var ds dirScratch
		for _, d := range []int{4, 6, 8, 12, 16} {
			const rows = 300
			pts := make([]float64, rows*d)
			q := make([]float64, d)
			for trial := 0; trial < 200; trial++ {
				for id := 0; id < rows; id++ {
					row := pts[id*d : (id+1)*d]
					clear(row)
					row[id%d] = float64(2 + rng.Intn(3)) // at 4, 9 or 16
				}
				// Every other trial takes every id, so that an id is its list
				// position and ties at multiples of four share lane 0.
				set := make([]uint64, (rows+63)/64)
				for id := 0; id < rows; id++ {
					if trial%2 == 0 || rng.Intn(3) > 0 {
						set[id>>6] |= 1 << (id & 63)
					}
				}
				least := rows
				for range 2 + rng.Intn(4) {
					id := rng.Intn(rows)
					if trial%2 == 0 {
						id = rng.Intn(rows/4) * 4
					}
					clear(pts[id*d : (id+1)*d])
					pts[id*d+id%d] = 1 // at 1
					set[id>>6] |= 1 << (id & 63)
					least = min(least, id)
				}
				pd := codesDir(cube(d, 0, 4), pts)
				checkNearest(t, &ds, set, q, pts, pd)
				if nb, _, _, _ := ds.nearest(q, pts, pd, set); nb.ID != least || nb.Dist2 != 1 {
					t.Fatalf("d=%d: nearest %+v, want id %d at 1", d, nb, least)
				}
			}
		}
	})
}

// An id outside the coordinate store — past its last row, or negative — makes
// dist2s panic by its slice bounds before it reads that row, on every kernel
// set.
func TestDist2sRefusesIDsOutsidePts(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		const n, d = 9, 8
		pts := make([]float64, n*d)
		q := make([]float64, d)
		for _, bad := range []int{n, n + 1, 1 << 40, -1, -n} {
			for _, at := range []int{0, 5, 8, 12} { // first group, second, third, the padded tail
				list := make([]Neighbor, at+1)
				for k := range list {
					list[k].ID = k % n
				}
				list[at].ID = bad
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("id %d at entry %d of %d: no panic", bad, at, len(list))
						}
					}()
					dist2s(list, q, pts)
				}()
			}
		}
	})
}

// The NN fold finds the nearest point wherever it stands in the walk: every
// position of sets whose words hold odd bit counts, so that the fused
// kernel's buffer drains, several times a set, leaving every remainder of its
// groups of eight, at d = 4 and 8.
func TestNearestAtEveryPosition(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		var ds dirScratch
		for _, d := range []int{4, 8} {
			for range 16 {
				set := randomSet(rng, 24, []int{1, 3, 5, 7, 9, 13, 64})
				pts := make([]float64, 64*len(set)*d)
				for i := range pts {
					pts[i] = 2
				}
				q := make([]float64, d)
				walk := ids(appendBits(nil, set))
				for _, id := range walk {
					pts[id*d] = 0.5
					if nb, count, _, _ := ds.nearest(q, pts, codesDir(cube(d, 0, 2), pts), set); nb.ID != id || count != len(walk) {
						t.Fatalf("d=%d, %d words: nearest %+v of %d, want id %d of %d", d, len(set), nb, count, id, len(walk))
					}
					pts[id*d] = 2
				}
			}
		}
	})
}

// naiveBounded is the bounded fold a bit at a time: the set bits ascending,
// each point's Dist2Flat, the entries that pass ¬(Dist2 > bound), the
// population count, and the lane minima of the whole list — lane l the
// positions ≡ l (mod 8), its two least distances, +Inf where it has fewer.
func naiveBounded(set []uint64, q, pts []float64, bound float64) (kept []Neighbor, count int, mins laneMinima) {
	d := len(q)
	var lanes [8][]float64
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			d2 := vec.Dist2Flat(q, pts[id*d:(id+1)*d])
			lanes[count%8] = append(lanes[count%8], d2)
			count++
			if !(d2 > bound) {
				kept = append(kept, Neighbor{ID: id, Dist2: d2})
			}
		}
	}
	for l, lane := range lanes {
		slices.Sort(lane)
		mins[l], mins[8+l] = math.Inf(1), math.Inf(1)
		if len(lane) > 0 {
			mins[l] = lane[0]
		}
		if len(lane) > 1 {
			mins[8+l] = lane[1]
		}
	}
	return kept, count, mins
}

// sameNeighbors reports whether two lists hold the same ids and Dist2 bits in
// the same order.
func sameNeighbors(a, b []Neighbor) bool {
	return slices.EqualFunc(a, b, func(x, y Neighbor) bool {
		return x.ID == y.ID && math.Float64bits(x.Dist2) == math.Float64bits(y.Dist2)
	})
}

// The bounded fold — the k-NN query's walk, distances and bound compare, on
// AVX2 at d = 4, 8, 12 and 16 one pass of boundedAVX2 — against the fold a
// bit at a time, on every kernel set: the kept entries (ids and Dist2 bits, in
// id order), the count and the lane minima bit for bit. The bound is +Inf
// (every point kept, the seed pass), the Dist2 of an entry (which is kept)
// and below every entry (none kept). The sets hold 1, 2, 3 and 5 bits — a
// last group mostly padding, which must reach neither the minima nor the
// list — the empty set and sets of up to 60 words that drain the buffer
// several times; coordinates come from a coarse grid, so distances tie in
// every lane. The candidate list starts empty, short of room (the kernel
// stops and is called again) and roomy. At +Inf without minima — the
// candidates query's list — it is also appendBits then dist2s.
func TestBoundedMatchesNaive(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		grid := make([]float64, 64*61*16)
		for i := range grid {
			grid[i] = float64(rng.Intn(3))
		}
		var sets [][]uint64
		for _, n := range []int{1, 2, 3, 5} {
			for range 4 {
				set := make([]uint64, 1+rng.Intn(3))
				for placed := 0; placed < n; {
					w, bit := rng.Intn(len(set)), uint64(1)<<rng.Intn(64)
					if set[w]&bit == 0 {
						set[w] |= bit
						placed++
					}
				}
				sets = append(sets, set)
			}
		}
		sets = append(sets, nil, make([]uint64, 5))
		for range 30 {
			sets = append(sets, randomSet(rng, 60, []int{1, 3, 5, 9, 64}))
		}
		dirs := map[int]*pointDir{}
		for _, d := range []int{4, 6, 8, 12, 16} {
			dirs[d] = codesDir(cube(d, 0, 2), grid)
		}
		var ds dirScratch
		for _, set := range sets {
			for _, d := range []int{4, 6, 8, 12, 16} {
				q := make([]float64, d)
				for j := range q {
					q[j] = float64(rng.Intn(3))
				}
				pts := grid[:64*len(set)*d]
				all, count, wantMins := naiveBounded(set, q, pts, math.Inf(1))
				bounds := []float64{math.Inf(1), -1}
				if len(all) > 0 {
					bounds = append(bounds, all[rng.Intn(len(all))].Dist2)
				}
				for _, bound := range bounds {
					want, _, _ := naiveBounded(set, q, pts, bound)
					switch rng.Intn(3) {
					case 0:
						ds.cand = nil
					case 1:
						ds.cand = make([]Neighbor, 0, rng.Intn(count+1))
					}
					for _, withMins := range []bool{false, true} {
						mins := laneMinima{-1, -1, -1} // the fold must overwrite all sixteen
						var in *laneMinima
						if withMins {
							in = &mins
						}
						got, gotCount, dists := ds.bounded(q, pts, dirs[d], set, bound, in)
						if !sameNeighbors(got, want) || gotCount != count || dists > count || dists < len(want) {
							t.Fatalf("d=%d, %d bits in %d words, bound %v: kept %v of %d (%d distances), want %v of %d", d, count, len(set), bound, got, gotCount, dists, want, count)
						}
						if in == nil && bound == math.Inf(1) {
							if list := dist2s(appendBits(nil, set), q, pts); !sameNeighbors(got, list) {
								t.Fatalf("d=%d, %d bits in %d words: the list form %v, appendBits then dist2s %v", d, count, len(set), got, list)
							}
						}
						if withMins && !slices.EqualFunc(mins[:], wantMins[:], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
							t.Fatalf("d=%d, %d bits in %d words: lane minima %v, want %v", d, count, len(set), mins, wantMins)
						}
					}
				}
			}
		}
	})
}

// compact and laneMinima.bound against a model on every kernel set: compact
// keeps, in order, the entries that pass ¬(Dist2 > bound) — NaN distances
// and a NaN bound included — over lists of every length to 70 (every tail of
// the assembly's steps of four); bound is the k-th least of the minima, a NaN
// taken as +Inf, +Inf for k > 16, over minima with ties, +Inf and NaNs.
func TestCompactAndBoundMatchModel(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		values := []float64{0, 0.25, 1, 1, 2, math.Inf(1), math.NaN()}
		for length := 0; length <= 70; length++ {
			list := make([]Neighbor, length)
			for k := range list {
				list[k] = Neighbor{ID: rng.Intn(1000), Dist2: values[rng.Intn(len(values))]}
			}
			for _, bound := range values {
				var want []Neighbor
				for _, nb := range list {
					if !(nb.Dist2 > bound) {
						want = append(want, nb)
					}
				}
				if got := compact(slices.Clone(list), bound); !sameNeighbors(got, want) {
					t.Fatalf("compact of %v at %v: %v, want %v", list, bound, got, want)
				}
			}
		}
		for range 500 {
			var m laneMinima
			for l := range m {
				m[l] = values[rng.Intn(len(values))]
			}
			sorted := slices.Clone(m[:])
			for i, v := range sorted {
				if math.IsNaN(v) {
					sorted[i] = math.Inf(1)
				}
			}
			slices.Sort(sorted)
			for k := 1; k <= 17; k++ {
				want := math.Inf(1)
				if k <= len(sorted) {
					want = sorted[k-1]
				}
				if got := m.bound(k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("bound(%d) of %v = %v, want %v", k, m, got, want)
				}
			}
		}
	})
}

// A set bit at or past the row count makes the NN fold and the bounded fold
// panic on every kernel set without reading that row: the fused kernels check
// the whole set against the row count before they read any row, the Go path
// fails the row's slice. pts has spare capacity behind its rows, which a
// missing check would read.
func TestNearestRefusesIDsOutsidePts(t *testing.T) {
	forKernelSets(t, func(t *testing.T) {
		var ds dirScratch
		for _, d := range []int{4, 6, 8} {
			for _, rows := range []int{1, 9, 64, 70, 130} {
				pts := make([]float64, rows*d, (rows+300)*d)
				pd := codesDir(cube(d, 0, 1), pts)
				q := make([]float64, d)
				for _, bad := range []int{rows, rows + 1, rows | 63, rows + 64, rows + 200} {
					set := make([]uint64, bad/64+1+bad%2)
					for _, id := range []int{0, rows / 2, rows - 1} {
						set[id>>6] |= 1 << (id & 63)
					}
					set[bad>>6] |= 1 << (bad & 63)
					for name, fold := range map[string]func(){
						"nearest":    func() { ds.nearest(q, pts, pd, set) },
						"bounded":    func() { ds.bounded(q, pts, pd, set, math.Inf(1), new(laneMinima)) },
						"code bound": func() { ds.bounded(q, pts, pd, set, 1, nil) },
					} {
						func() {
							defer func() {
								if recover() == nil {
									t.Errorf("d=%d, %d rows: %s of bit %d of %d words: no panic", d, rows, name, bad, len(set))
								}
							}()
							fold()
						}()
					}
				}
			}
		}
	})
}

// FuzzKernels compares the AVX2 kernels with the Go loops bit for bit: andRows
// and andNotRows over 1–17 rows of 0–11 words; then, for d = 1…24, of a
// survivor set over up to 768 rows the NN fold (id, Dist2, count), the
// bounded fold's list form — bound +Inf and no minima, every point of the
// set with its distance — against appendBits then dist2s, the bounded fold
// with the code bound (no minima, a finite bound) and the bounded fold with
// lane minima (entries, count, lane minima; then the minima's k-th least and
// compact at it); with the code bound the kernel takes exactly the distances
// the Go model of the bound (codeBound) leaves. The data space the codes are taken on is the unit cube, a
// box of other extents, or one with zero-width dimensions; coordinates come
// from the classes the input draws — ±0, subnormals, magnitudes near 2^±300,
// points on the code grid's edges and on the bounds, outside the space, and
// ordinary values — and so does the query, NaN too, whose codes
// queryCodesAVX2 must take as the Go model does. Every point of the set must pass
// the code bound at its own distance, as a fold whose bound is that distance
// must keep it. Without AVX2 there is nothing to compare.
func FuzzKernels(f *testing.F) {
	if !avx2Available {
		f.Skip("this CPU runs the Go kernels only")
	}
	for _, d := range []uint8{3, 4, 8, 12, 16, 20, 24} {
		f.Add(int64(d), d, uint8(5+3*d), uint8(d), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, byte(d)})
	}
	f.Add(int64(1), uint8(8), uint8(70), uint8(16), []byte{})
	f.Add(int64(2), uint8(8), uint8(2), uint8(1), []byte{4, 5, 8})
	f.Add(int64(3), uint8(4), uint8(10), uint8(2), []byte{0, 4, 5})
	f.Add(int64(4), uint8(7), uint8(6), uint8(5), []byte{255, 7, 8})
	f.Fuzz(func(t *testing.T, seed int64, dIn, lenIn, rowsIn uint8, classes []byte) {
		rng := rand.New(rand.NewSource(seed))
		d, nRows, words := 1+int(dIn)%24, 1+int(rowsIn)%17, rng.Intn(12)

		// The data space: the unit cube, a box of other corners and extents,
		// or that with about a third of its dimensions of zero width.
		space := vec.UnitCube(d)
		if kind := int(lenIn) / 4 % 3; kind > 0 {
			for j := range d {
				space.Lo[j] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10))
				w := math.Exp2(float64(rng.Intn(40) - 20))
				if kind == 2 && rng.Intn(3) == 0 {
					w = 0
				}
				space.Hi[j] = space.Lo[j] + w
			}
		}

		// value draws coordinate j of the class the next input byte names.
		next := 0
		value := func(j int) float64 {
			class := byte(rng.Intn(256))
			if len(classes) > 0 {
				class = classes[next%len(classes)]
				next++
			}
			sign := float64(1 - 2*rng.Intn(2))
			lo, w := space.Lo[j], space.Hi[j]-space.Lo[j]
			switch class % 9 {
			case 0:
				return math.Copysign(0, sign)
			case 1:
				return sign * math.Float64frombits(1+rng.Uint64()%(1<<52-1)) // subnormal
			case 2:
				return sign * math.Exp2(300+rng.Float64()*4-2)
			case 3:
				return sign * math.Exp2(-300+rng.Float64()*4-2)
			case 4:
				return lo + float64(rng.Intn(codeLevels+1))*w/codeLevels // a code-grid edge
			case 5:
				return []float64{space.Lo[j], space.Hi[j]}[rng.Intn(2)]
			case 6:
				if sign < 0 {
					return lo - (1+rng.Float64())*w // outside the space
				}
				return lo + (2+rng.Float64())*w
			case 7:
				return lo + rng.Float64()*w
			default:
				return rng.NormFloat64()
			}
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = value(j)
		}
		if len(classes) > 0 && classes[0] == 255 {
			q[rng.Intn(d)] = math.NaN() // every distance NaN: no code bound
		}

		hi, lo := randRows(rng, nRows, words), randRows(rng, rng.Intn(18), words)
		acc := make([]uint64, words)
		for w := range acc {
			acc[w] = rng.Uint64()
		}
		var accs [][]uint64
		for _, set := range kernelSets() {
			restore := useKernelSet(set)
			a := slices.Clone(acc)
			andRows(a, hi)
			anded := slices.Clone(a)
			andNotRows(a, lo)
			restore()
			accs = append(accs, anded, a)
		}
		if !slices.Equal(accs[0], accs[2]) || !slices.Equal(accs[1], accs[3]) {
			t.Fatalf("%d rows then %d, %d words: go %x / %x, avx2 %x / %x", len(hi), len(lo), words, accs[0], accs[1], accs[2], accs[3])
		}

		// A survivor set over up to 12·64 rows, of a density the input picks
		// (none, sparse, about one bit in three, nearly full), through the NN
		// fold and the list form.
		rows := 1 + rng.Intn(12*64)
		set := make([]uint64, (rows+63)/64+rng.Intn(2))
		density := []float64{0, 0.01, 0.3, 0.95}[int(lenIn)%4]
		for id := 0; id < rows; id++ {
			if rng.Float64() < density {
				set[id>>6] |= 1 << (id & 63)
			}
		}
		pts := make([]float64, rows*d)
		for i := range pts {
			pts[i] = value(i % d)
		}
		pd := codesDir(space, pts)
		var ds dirScratch
		list := dist2s(appendBits(nil, set), q, pts)
		qc, inv := pd.queryCodes(nil, q)
		if got, gotInv := ds.queryCodes(pd, q); len(pd.codes) > 0 && (!slices.Equal(got, qc) && inv < math.Inf(1) || gotInv != inv) {
			t.Fatalf("d=%d in %v, q %v: query codes %x (factor %v), the model %x (%v)", d, space, q, got, gotInv, qc, inv)
		}
		for _, nb := range list {
			if b, lim := codeBound(pd.codes, nb.ID, qc), limit(nb.Dist2, inv); b > lim {
				t.Fatalf("d=%d in %v, q %v: point %d at %v has Dist2 %v, code bound %d over its limit %d",
					d, space, q, nb.ID, pts[nb.ID*d:(nb.ID+1)*d], nb.Dist2, b, lim)
			}
		}
		var folds []Neighbor
		var counts []int
		var founds []bool
		for _, kernels := range kernelSets() {
			restore := useKernelSet(kernels)
			nb, count, _, found := ds.nearest(q, pts, pd, set)
			all, _, _ := ds.bounded(q, pts, pd, set, math.Inf(1), nil)
			restore()
			if !sameNeighbors(all, list) {
				t.Fatalf("d=%d, %d words at density %v: the list form on %s %v, appendBits then dist2s %v", d, len(set), density, kernels, all, list)
			}
			folds, counts, founds = append(folds, nb), append(counts, count), append(founds, found)
		}
		want, _, _ := naiveNearest(set, q, pts)
		if folds[0].ID != folds[1].ID || math.Float64bits(folds[0].Dist2) != math.Float64bits(folds[1].Dist2) ||
			counts[0] != counts[1] || founds[0] != founds[1] || folds[0] != want {
			t.Fatalf("d=%d, %d words at density %v: avx2 folds %v (%x), %d, %v; go %v (%x), %d, %v; a bit at a time %v", d, len(set), density,
				folds[1], math.Float64bits(folds[1].Dist2), counts[1], founds[1], folds[0], math.Float64bits(folds[0].Dist2), counts[0], founds[0], want)
		}

		// The bounded fold of the same set at a bound the input picks — +Inf,
		// the Dist2 of the NN fold's point or of some other, below every
		// distance — without minima (the code bound's fold) and with them,
		// then compact at that bound and the minima's k-th least for a k of
		// 1 … 17.
		bound := []float64{math.Inf(1), folds[0].Dist2, -1, math.NaN()}[int(rowsIn)%4]
		if len(list) > 0 && rowsIn%8 == 4 {
			bound = list[rng.Intn(len(list))].Dist2
		}
		wantKept, _, _ := naiveBounded(set, q, pts, bound)
		// The kernel takes the distance of exactly the points whose code
		// bound the model puts within the bound's limit.
		wantDists := len(list)
		if len(pd.codes) > 0 && bound < math.Inf(1) && inv < math.Inf(1) {
			wantDists = 0
			for _, nb := range list {
				if codeBound(pd.codes, nb.ID, qc) <= limit(bound, inv) {
					wantDists++
				}
			}
		}
		k := 1 + int(dIn)%17
		var boundeds [][]Neighbor
		var minima []laneMinima
		var bcounts []int
		var bounds []float64
		for _, kernels := range kernelSets() {
			restore := useKernelSet(kernels)
			kept, count, dists := ds.bounded(q, pts, pd, set, bound, nil)
			if kernels == "go" && dists != count || kernels == "avx2" && dists != wantDists {
				t.Fatalf("d=%d, %d words at density %v, bound %v: %s took %d distances of %d, the code bound leaves %d",
					d, len(set), density, bound, kernels, dists, count, wantDists)
			}
			if !sameNeighbors(kept, wantKept) || count != len(list) {
				t.Fatalf("d=%d, %d words at density %v, bound %v: %s keeps %v of %d, a bit at a time %v",
					d, len(set), density, bound, kernels, kept, count, wantKept)
			}
			var mins laneMinima
			kept, count, _ = ds.bounded(q, pts, pd, set, bound, &mins)
			kept = slices.Clone(kept)
			restore()
			boundeds, minima, bcounts = append(boundeds, kept), append(minima, mins), append(bcounts, count)
			restore = useKernelSet(kernels)
			bounds = append(bounds, mins.bound(k))
			boundeds = append(boundeds, slices.Clone(compact(kept, bounds[len(bounds)-1])))
			restore()
		}
		// With a NaN query every distance is NaN, and the kernel's last group
		// pads a lane's NaN minima with +Inf where the Go fold keeps NaN:
		// bound reads the two alike, so they are compared as it reads them.
		sameMin := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if slices.ContainsFunc(q, math.IsNaN) {
			sameMin = func(a, b float64) bool {
				return a == b || (a != a || a > math.MaxFloat64) && (b != b || b > math.MaxFloat64)
			}
		}
		if !sameNeighbors(boundeds[0], boundeds[2]) || bcounts[0] != bcounts[1] || !slices.EqualFunc(minima[0][:], minima[1][:], sameMin) {
			t.Fatalf("d=%d, %d words at density %v, bound %v: avx2 keeps %v of %d, minima %v; go %v of %d, %v",
				d, len(set), density, bound, boundeds[2], bcounts[1], minima[1], boundeds[0], bcounts[0], minima[0])
		}
		if math.Float64bits(bounds[0]) != math.Float64bits(bounds[1]) || !sameNeighbors(boundeds[1], boundeds[3]) {
			t.Fatalf("d=%d: the %d-th least minimum is %v on avx2, %v on go; compacted there %v, %v", d, k, bounds[1], bounds[0], boundeds[3], boundeds[1])
		}
	})
}

// KernelSet names the set the kernels run on, and the start-up probe agrees
// with the flags Linux reports for the CPU where it reports them: the avx2
// kernels need AVX2, BMI1 and POPCNT.
func TestKernelSetNamesTheKernels(t *testing.T) {
	for _, set := range kernelSets() {
		restore := useKernelSet(set)
		got := KernelSet()
		restore()
		if got != set {
			t.Errorf("KernelSet() = %q on the %s kernels", got, set)
		}
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || runtime.GOARCH != "amd64" {
		t.Skipf("no amd64 /proc/cpuinfo to check the probe against (%s, %v)", runtime.GOARCH, err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed := true
			for _, want := range []string{"avx2", "bmi1", "popcnt"} {
				listed = listed && slices.Contains(strings.Fields(flags), want)
			}
			if listed != avx2Available {
				t.Fatalf("/proc/cpuinfo lists avx2, bmi1 and popcnt: %v, the probe found them: %v", listed, avx2Available)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestBuildSameOnEveryKernelSet builds the same points on every kernel set —
// NN-Direction at d ∈ {4, 6, 8, 12, 16}, Correct at d ∈ {4, 8} — and checks
// that every set saves the same bytes after the same LP solves and pivots:
// internal/lp's AVX2 kernels pivot exactly as its Go loops do (at d = 6 only
// its pricing kernel runs), and the neighbour searches find the same points.
func TestBuildSameOnEveryKernelSet(t *testing.T) {
	if !avx2Available {
		t.Skip("this CPU runs the go kernels only")
	}
	for _, tc := range []struct {
		alg  Algorithm
		d, n int
	}{
		{NNDirection, 4, 600}, {NNDirection, 6, 600}, {NNDirection, 8, 600},
		{NNDirection, 12, 600}, {NNDirection, 16, 600},
		{Correct, 4, 250}, {Correct, 8, 250},
	} {
		var want bytes.Buffer
		var wantStats Stats
		for i, set := range kernelSets() {
			restore := useKernelSet(set)
			ix := buildInBox(t, vec.UnitCube(tc.d), int64(tc.d), tc.n, tc.alg)
			restore()
			var got bytes.Buffer
			if err := ix.Save(&got); err != nil {
				t.Fatal(err)
			}
			st := ix.Stats()
			if i == 0 {
				want, wantStats = got, st
				continue
			}
			if st.LPSolves != wantStats.LPSolves || st.LPPivots != wantStats.LPPivots {
				t.Errorf("%s d=%d: %d LP solves and %d pivots on %s, %d and %d on go",
					tc.alg, tc.d, st.LPSolves, st.LPPivots, set, wantStats.LPSolves, wantStats.LPPivots)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s d=%d: the %s build saves other bytes than the go build", tc.alg, tc.d, set)
			}
		}
	}
}
