package nncell

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vec"
)

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

// The fused row passes against one row at a time: andRows for 1–17 rows —
// every count of full four-row passes with a 3-, 2- and 1-row tail — over 0–3
// words, and the point directory's form, the AND over pairs of hi &^ lo, with
// 0–17 lower rows (fewer, as many and more than upper ones, odd counts among
// them) cleared by andNotRows.
func TestRowKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for words := 0; words <= 3; words++ {
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

// appendBits against the bit-at-a-time walk, on words of 0, 1, 4, 5, 8, 9 and
// 64 bits — nothing, one step partly used, one and two steps exactly full and
// one past them, the densest word — in every order of two, as they are (the
// walk that takes every word) and among a thousand empty words (the sparse
// walk that skips them), appended to an empty list, to a non-empty one with
// room, and to one that must grow.
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
	for _, set := range sets {
		var want []int
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				want = append(want, w<<6|bits.TrailingZeros64(word))
			}
		}
		roomy := append(make([]Neighbor, 0, 512), Neighbor{ID: -7, Dist2: 7}, Neighbor{ID: -8, Dist2: 8})
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
// at and past the lane count and list lengths 0–9 (every tail of the groups of
// four), with and without room behind the list for the padding, which must
// not disturb the ids.
func TestDist2sMatchesDist2FlatBits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40
	for _, d := range []int{1, 2, 3, 4, 8, 16, 17} {
		pts := make([]float64, n*d)
		for i := range pts {
			pts[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
		}
		q := make(vec.Point, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		for length := 0; length <= 9; length++ {
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
}

// Ties through the lanes: the six axis neighbours of the centre of a 3-d
// lattice are all at squared distance 1/16 exactly, and so are candidates of
// a query there. Wherever they stand in the id list — four of them inside one
// group of four, or spread over two — NearestNeighbor returns the smallest id
// and KNearest lists them ascending by id, cutting a tie at k toward the
// smaller ids; a scan in id order is the reference.
func TestLaneTiesGoToSmallerID(t *testing.T) {
	q := vec.Point{0.5, 0.5, 0.5}
	var tied, far []vec.Point
	for j := 0; j < 3; j++ {
		for _, off := range []float64{-0.25, 0.25} {
			p := slices.Clone(q)
			p[j] += off
			tied = append(tied, p)
		}
	}
	for _, x := range []float64{0, 1} {
		for _, y := range []float64{0, 1} {
			for _, z := range []float64{0, 1} {
				far = append(far, vec.Point{x, y, z})
			}
		}
	}
	// The tied points first (list positions 0–5: one full group and the next),
	// after three and after five far points, and interleaved with them.
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
				t.Fatalf("%d tied points, want %d", len(want), len(tied))
			}
			// Where the tied ids stand in the list the kernels walk.
			list := ids(appendBits(nil, ix.dir.survivors(nil, q)))
			groups := map[int]int{}
			for _, nb := range want {
				at := slices.Index(list, nb.ID)
				if at < 0 {
					t.Fatalf("%v: tied id %d is no candidate (%v)", alg, nb.ID, list)
				}
				groups[at/4]++
			}
			for _, c := range groups {
				oneGroup = oneGroup || c == 4
			}
			twoGroups = twoGroups || len(groups) >= 2

			nb, err := ix.NearestNeighbor(q)
			if err != nil || nb != want[0] {
				t.Fatalf("%v: NearestNeighbor = %+v, %v; want %+v (candidates %v)", alg, nb, err, want[0], list)
			}
			for _, k := range []int{1, 3, 4, 5, 6} {
				got, err := ix.KNearest(q, k)
				if err != nil || !slices.Equal(got, want[:k]) {
					t.Fatalf("%v: KNearest(%d) = %+v, %v; want %+v", alg, k, got, err, want[:k])
				}
			}
		}
	}
	if !oneGroup || !twoGroups {
		t.Fatalf("ties inside one group of four: %v, across groups: %v — the layouts miss a case", oneGroup, twoGroups)
	}
}
