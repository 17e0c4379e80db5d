package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/vec"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{
		N:       300,
		SmallN:  120,
		Dims:    []int{2, 4},
		Sizes:   []int{200, 400},
		Queries: 40,
		Seed:    7,
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Headers: []string{"a", "bb"}}
	tb.AddRow(1, "hello")
	tb.AddRow(22, 3.5)
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "hello") {
		t.Errorf("rendering missing content:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,hello\n") {
		t.Errorf("CSV = %q", csv)
	}
}

func TestAllFiguresRunAtTinyScale(t *testing.T) {
	tables, err := All(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 9 {
		t.Fatalf("%d tables, want 9", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Headers) {
				t.Errorf("%s: row width %d, headers %d", tb.ID, len(row), len(tb.Headers))
			}
		}
	}
}

func TestFig4CorrectHasLowestOverlap(t *testing.T) {
	tb, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Per dimension, the Correct algorithm's overlap must be the minimum
	// (Lemma 1: everything else is a superset).
	best := map[string]float64{}
	correct := map[string]float64{}
	for _, row := range tb.Rows {
		dim, alg, overlap := row[0], row[1], row[3]
		v := parseF(t, overlap)
		if cur, ok := best[dim]; !ok || v < cur {
			best[dim] = v
		}
		if alg == "Correct" {
			correct[dim] = v
		}
	}
	for dim, v := range correct {
		if v > best[dim]+1e-9 {
			t.Errorf("dim %s: Correct overlap %v above minimum %v", dim, v, best[dim])
		}
	}
}

func TestFig13DecompositionNotWorse(t *testing.T) {
	tb, err := Fig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// volume_sum of the decomposed variant must not exceed the exact one.
	var exact, dec float64
	for _, row := range tb.Rows {
		switch row[1] {
		case "exact":
			exact = parseF(t, row[3])
		case "decomposed":
			dec = parseF(t, row[3])
			if dec > exact+1e-9 {
				t.Errorf("dim %s: decomposed volume %v > exact %v", row[0], dec, exact)
			}
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestGoldenPageCounts pins the deterministic counters of the three measured
// structures, so a change to the tree engine that builds a different tree (or
// walks the same tree differently) fails here and not in a regenerated
// figure: runRStar ([BKSS 90] insert-built, [RKV 95] search), runXTree
// ([BKK 96] insert-built, [HS 95] search), runNNCell (bulk-loaded cell tree,
// NearestCandidate), and the LP constraint points Point and Sphere collect
// through VisitLeafRegions on the bulk-loaded point tree.
func TestGoldenPageCounts(t *testing.T) {
	// The trees take all N points; the cell index, whose build is LP-bound,
	// a third of them, and Point and Sphere the first SmallN.
	cfg := Config{N: 1500, SmallN: 200, Queries: 40, Seed: 7}.withDefaults()
	type golden struct {
		rstar, xtree, nncell uint64
		point, sphere        string
	}
	want := map[int]golden{
		4:  {rstar: 128, xtree: 127, nncell: 175, point: "49.00", sphere: "188.25"},
		8:  {rstar: 696, xtree: 681, nncell: 1384, point: "24.00", sphere: "199.00"},
		12: {rstar: 2758, xtree: 2670, nncell: 1399, point: "11.52", sphere: "199.00"},
	}
	for _, d := range []int{4, 8, 12} {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(d)))
		pts := dataset.Deduplicate(dataset.Uniform(rng, cfg.N, d))
		qs := queryPoints(rng, cfg.Queries, d)
		got := golden{rstar: runRStar(pts, qs, cfg).accesses, xtree: runXTree(pts, qs, cfg).accesses}
		cells := func(n int, alg nncell.Algorithm) (accesses uint64, lpPoints string) {
			m, ix, err := runNNCell(pts[:n], qs, cfg, nncell.Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			return m.accesses, f2(float64(ix.Stats().ConstraintPoints) / float64(n))
		}
		got.nncell, _ = cells(cfg.N/3, buildAlgorithm(d))
		_, got.point = cells(cfg.SmallN, nncell.PointAlg)
		_, got.sphere = cells(cfg.SmallN, nncell.Sphere)
		if got != want[d] {
			t.Errorf("d=%d: got %+v, want %+v", d, got, want[d])
		}
	}
}

// TestRunNNCellPinsAlgorithm: a figure labelled "Correct" runs Correct at
// 4 096+ points, the size at which the library once switched Correct to
// NN-Direction on its own. Only Correct prunes its constraint set with range
// queries, so PruneVisited tells the two apart.
func TestRunNNCellPinsAlgorithm(t *testing.T) {
	const d = 2
	rng := rand.New(rand.NewSource(7))
	pts := dataset.Deduplicate(dataset.Uniform(rng, 4146, d))
	if len(pts) < 4096 {
		t.Fatalf("%d distinct points, need 4096", len(pts))
	}
	_, ix, err := runNNCell(pts, queryPoints(rng, 1, d), tiny().withDefaults(), nncell.Options{Algorithm: nncell.Correct})
	if err != nil {
		t.Fatal(err)
	}
	pruned := ix.Stats().PruneVisited
	if pruned == 0 {
		t.Error("runNNCell built a Correct index of 4096+ points with NN-Direction's constraint selection")
	}
	// The index's writes run Correct at this size too.
	if _, err := ix.Insert(vec.Point{0.123456, 0.654321}); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().PruneVisited == pruned {
		t.Error("an Insert into a Correct index of 4096+ points solved with NN-Direction's constraint selection")
	}
}
