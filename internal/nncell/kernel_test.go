package nncell

import (
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

	"repro/internal/vec"
)

// avx2Available is whether this CPU runs the AVX2 kernels, read before any
// test switches them.
var avx2Available = useAVX2

var kernelFlag = flag.String("kernel", "", "go: run the package's tests on the portable Go kernels, not the CPU's best")

// TestMain applies -kernel: `go test ./internal/nncell/ -args -kernel=go`
// runs the whole suite on the portable kernels.
func TestMain(m *testing.M) {
	flag.Parse()
	switch *kernelFlag {
	case "":
	case "go":
		useAVX2 = false
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
	saved := useAVX2
	useAVX2 = set == "avx2"
	return func() { useAVX2 = saved }
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

// checkNearest compares the NN fold of set on the kernel set in use
// (dirScratch.nearest) with naiveNearest: id, Dist2 bits, count and found.
func checkNearest(t *testing.T, ds *dirScratch, set []uint64, q, pts []float64) {
	t.Helper()
	nb, count, found := ds.nearest(q, pts, set)
	want, wantCount, wantFound := naiveNearest(set, q, pts)
	if nb.ID != want.ID || math.Float64bits(nb.Dist2) != math.Float64bits(want.Dist2) || count != wantCount || found != wantFound {
		t.Fatalf("d=%d, %d words, %d bits: nearest %v (%x), %d, %v; a bit at a time %v (%x), %d, %v",
			len(q), len(set), wantCount, nb, math.Float64bits(nb.Dist2), count, found,
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
	forKernelSets(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		var ds dirScratch
		for _, set := range sets {
			for _, d := range []int{4, 6, 8, 12, 16} {
				q := make([]float64, d)
				for j := range q {
					q[j] = float64(rng.Intn(3))
				}
				checkNearest(t, &ds, set, q, grid[:64*len(set)*d])
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
				checkNearest(t, &ds, set, q, pts)
				if nb, _, _ := ds.nearest(q, pts, set); nb.ID != least || nb.Dist2 != 1 {
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
					if nb, count, _ := ds.nearest(q, pts, set); nb.ID != id || count != len(walk) {
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
						got, gotCount := ds.bounded(q, pts, set, bound, in)
						if !sameNeighbors(got, want) || gotCount != count {
							t.Fatalf("d=%d, %d bits in %d words, bound %v: kept %v of %d, want %v of %d", d, count, len(set), bound, got, gotCount, want, count)
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
				q := make([]float64, d)
				for _, bad := range []int{rows, rows + 1, rows | 63, rows + 64, rows + 200} {
					set := make([]uint64, bad/64+1+bad%2)
					for _, id := range []int{0, rows / 2, rows - 1} {
						set[id>>6] |= 1 << (id & 63)
					}
					set[bad>>6] |= 1 << (bad & 63)
					for name, fold := range map[string]func(){
						"nearest": func() { ds.nearest(q, pts, set) },
						"bounded": func() { ds.bounded(q, pts, set, math.Inf(1), new(laneMinima)) },
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
// set with its distance — against appendBits then dist2s, and the bounded
// fold (entries, count, lane minima; then the minima's k-th least and compact
// at it), with coordinates the input draws from ±0, subnormals, magnitudes
// near 2^±300 and ordinary values. Without AVX2 there is nothing to compare.
func FuzzKernels(f *testing.F) {
	if !avx2Available {
		f.Skip("this CPU runs the Go kernels only")
	}
	for _, d := range []uint8{3, 4, 8, 12, 16, 20, 24} {
		f.Add(int64(d), d, uint8(5+3*d), uint8(d), []byte{0, 1, 2, 3, 4, 5, 6, 7, byte(d)})
	}
	f.Add(int64(1), uint8(8), uint8(70), uint8(16), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, dIn, lenIn, rowsIn uint8, classes []byte) {
		rng := rand.New(rand.NewSource(seed))
		d, nRows, words := 1+int(dIn)%24, 1+int(rowsIn)%17, rng.Intn(12)

		// value draws one float64 of the class the next input byte names.
		next := 0
		value := func() float64 {
			class := byte(rng.Intn(256))
			if len(classes) > 0 {
				class = classes[next%len(classes)]
				next++
			}
			sign := float64(1 - 2*rng.Intn(2))
			switch class % 6 {
			case 0:
				return math.Copysign(0, sign)
			case 1:
				return sign * math.Float64frombits(1+rng.Uint64()%(1<<52-1)) // subnormal
			case 2:
				return sign * math.Exp2(300+rng.Float64()*4-2)
			case 3:
				return sign * math.Exp2(-300+rng.Float64()*4-2)
			default:
				return rng.NormFloat64()
			}
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = value()
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
			pts[i] = value()
		}
		var folds []Neighbor
		var counts []int
		var founds []bool
		var ds dirScratch
		list := dist2s(appendBits(nil, set), q, pts)
		for _, kernels := range kernelSets() {
			restore := useKernelSet(kernels)
			nb, count, found := ds.nearest(q, pts, set)
			all, _ := ds.bounded(q, pts, set, math.Inf(1), nil)
			restore()
			if !sameNeighbors(all, list) {
				t.Fatalf("d=%d, %d words at density %v: the list form on %s %v, appendBits then dist2s %v", d, len(set), density, kernels, all, list)
			}
			folds, counts, founds = append(folds, nb), append(counts, count), append(founds, found)
		}
		if folds[0].ID != folds[1].ID || math.Float64bits(folds[0].Dist2) != math.Float64bits(folds[1].Dist2) ||
			counts[0] != counts[1] || founds[0] != founds[1] {
			t.Fatalf("d=%d, %d words at density %v: avx2 folds %v (%x), %d, %v; go %v (%x), %d, %v", d, len(set), density,
				folds[1], math.Float64bits(folds[1].Dist2), counts[1], founds[1], folds[0], math.Float64bits(folds[0].Dist2), counts[0], founds[0])
		}

		// The bounded fold of the same set, with its lane minima, at a bound
		// the input picks — +Inf, the Dist2 of the NN fold's point, below
		// every distance — then compact at that bound and the minima's k-th
		// least for a k of 1 … 17.
		bound := []float64{math.Inf(1), folds[0].Dist2, -1}[int(rowsIn)%3]
		k := 1 + int(dIn)%17
		var boundeds [][]Neighbor
		var minima []laneMinima
		var bcounts []int
		var bounds []float64
		for _, kernels := range kernelSets() {
			restore := useKernelSet(kernels)
			var mins laneMinima
			kept, count := ds.bounded(q, pts, set, bound, &mins)
			kept = slices.Clone(kept)
			restore()
			boundeds, minima, bcounts = append(boundeds, kept), append(minima, mins), append(bcounts, count)
			restore = useKernelSet(kernels)
			bounds = append(bounds, mins.bound(k))
			boundeds = append(boundeds, slices.Clone(compact(kept, bounds[len(bounds)-1])))
			restore()
		}
		if !sameNeighbors(boundeds[0], boundeds[2]) || bcounts[0] != bcounts[1] ||
			!slices.EqualFunc(minima[0][:], minima[1][:], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
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
