package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/vec"
)

// Fig4 reproduces Figure 4: for each of the four constraint-selection
// algorithms and each dimension, (a) the time needed to compute the
// approximations (the insertion cost) and (b) the quality of the
// approximations measured as overlap (average number of cell approximations
// containing a query point).
func Fig4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("Approximation algorithms: build time and overlap (uniform, N=%d)", cfg.SmallN),
		Headers: []string{"dim", "algorithm", "build_s", "overlap", "lp_points_avg"},
		Notes: []string{
			"paper: Correct is slowest and most accurate; NN-Direction fastest and least accurate",
			"paper: time grows and quality degrades (overlap grows) with dimension",
		},
	}
	for _, d := range cfg.Dims {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(d)))
		pts := dataset.Deduplicate(dataset.Uniform(rng, cfg.SmallN, d))
		qs := queryPoints(rng, cfg.Queries, d)
		for _, alg := range nncell.Algorithms() {
			m, ix, err := runNNCell(pts, qs, cfg, nncell.Options{Algorithm: alg})
			if err != nil {
				return nil, fmt.Errorf("fig4 d=%d %v: %w", d, alg, err)
			}
			s := ix.Stats()
			lpPts := float64(s.ConstraintPoints) / float64(len(pts))
			t.AddRow(d, alg.String(), secs(m.buildTime), f2(avgCandidates(ix, qs)), f2(lpPts))
		}
	}
	return t, nil
}

// Fig5 reproduces Figure 5: the quality-to-performance ratio of the four
// algorithms. Quality is 1/overlap, performance is 1/build-time; the ratio
// reported is normalized so the best algorithm per dimension scores 1.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig5",
		Title:   fmt.Sprintf("Quality-to-performance ratio (uniform, N=%d)", cfg.SmallN),
		Headers: []string{"dim", "algorithm", "q2p", "q2p_normalized"},
		Notes: []string{
			"paper: Sphere has the best ratio for d in {4,8}; NN-Direction for d in {12,16}",
		},
	}
	for _, d := range cfg.Dims {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(d)))
		pts := dataset.Deduplicate(dataset.Uniform(rng, cfg.SmallN, d))
		qs := queryPoints(rng, cfg.Queries, d)
		type row struct {
			alg nncell.Algorithm
			q2p float64
		}
		rows := make([]row, 0, 4)
		best := 0.0
		for _, alg := range nncell.Algorithms() {
			m, ix, err := runNNCell(pts, qs, cfg, nncell.Options{Algorithm: alg})
			if err != nil {
				return nil, fmt.Errorf("fig5 d=%d %v: %w", d, alg, err)
			}
			overlap := avgCandidates(ix, qs)
			q2p := 1 / (overlap * m.buildTime.Seconds())
			rows = append(rows, row{alg, q2p})
			if q2p > best {
				best = q2p
			}
		}
		for _, r := range rows {
			t.AddRow(d, r.alg.String(), fmt.Sprintf("%.4f", r.q2p), f2(r.q2p/best))
		}
	}
	return t, nil
}

// Fig7 reproduces Figure 7: total NN search time of the NN-cell approach
// versus the R*-tree and X-tree over the dimension sweep on uniform data.
// The sequential scan is included as the modern sanity baseline.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig7",
		Title:   fmt.Sprintf("Total search time vs dimension (uniform, N=%d, %d queries)", cfg.N, cfg.Queries),
		Headers: []string{"dim", "structure", "total_ms", "cpu_ms", "page_misses"},
		Notes: []string{
			"paper: comparable at low d; NN-cell clearly fastest at high d",
		},
	}
	for _, d := range cfg.Dims {
		res, err := dimensionComparison(cfg, d)
		if err != nil {
			return nil, err
		}
		for _, m := range res {
			t.AddRow(d, m.name, ms(m.totalTime), ms(m.queryCPU), m.misses)
		}
	}
	return t, nil
}

// Fig8 reproduces Figure 8: the speed-up of the NN-cell approach over the
// R*-tree, by dimension (total search time ratio, in percent as the paper
// plots it).
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig8",
		Title:   fmt.Sprintf("Speed-up of NN-cell over R*-tree (uniform, N=%d)", cfg.N),
		Headers: []string{"dim", "rstar_total_ms", "nncell_total_ms", "speedup_pct"},
		Notes: []string{
			"paper: speed-up grows with dimension, exceeding 325% at d=16",
		},
	}
	for _, d := range cfg.Dims {
		res, err := dimensionComparison(cfg, d)
		if err != nil {
			return nil, err
		}
		var nn, rs time.Duration
		for _, m := range res {
			switch m.name {
			case "NN-cell":
				nn = m.totalTime
			case "R*-tree":
				rs = m.totalTime
			}
		}
		speedup := 0.0
		if nn > 0 {
			speedup = float64(rs) / float64(nn) * 100
		}
		t.AddRow(d, ms(rs), ms(nn), f2(speedup))
	}
	return t, nil
}

// Fig9 reproduces Figure 9: page accesses versus CPU time per structure over
// the dimension sweep.
func Fig9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("Page accesses vs CPU time (uniform, N=%d, %d queries)", cfg.N, cfg.Queries),
		Headers: []string{"dim", "structure", "page_accesses", "page_misses", "cpu_ms_per_query"},
		Notes: []string{
			"paper: NN-cell beats the R*-tree on both pages and CPU; beats the X-tree on CPU",
			"paper: the X-tree pays CPU for min-max-distance sorting in its NN search",
		},
	}
	for _, d := range cfg.Dims {
		res, err := dimensionComparison(cfg, d)
		if err != nil {
			return nil, err
		}
		for _, m := range res {
			t.AddRow(d, m.name, m.accesses, m.misses, perQ(m.queryCPU, cfg.Queries))
		}
	}
	return t, nil
}

// dimensionComparison builds all four structures on the same uniform
// workload and measures the query batch. Results are cached per (seed, N,
// queries, d) so Fig. 7, 8 and 9 share one run.
func dimensionComparison(cfg Config, d int) ([]measured, error) {
	key := fmt.Sprintf("%d/%d/%d/%d/%d", cfg.Seed, cfg.N, cfg.Queries, cfg.CachePages, d)
	if res, ok := dimCache[key]; ok {
		return res, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(d)))
	pts := dataset.Deduplicate(dataset.Uniform(rng, cfg.N, d))
	qs := queryPoints(rng, cfg.Queries, d)
	nnm, _, err := runNNCell(pts, qs, cfg, nncell.Options{Algorithm: buildAlgorithm(d)})
	if err != nil {
		return nil, fmt.Errorf("dimension comparison d=%d: %w", d, err)
	}
	res := []measured{nnm, runRStar(pts, qs, cfg), runXTree(pts, qs, cfg), runScan(pts, qs, cfg)}
	dimCache[key] = res
	return res, nil
}

var dimCache = map[string][]measured{}

// Fig10 reproduces Figure 10: total search time, page accesses and CPU time
// as a function of database size at d=10 on uniform data.
func Fig10(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const d = 10
	t := &Table{
		ID:      "fig10",
		Title:   fmt.Sprintf("Scaling with database size (uniform, d=%d, %d queries)", d, cfg.Queries),
		Headers: []string{"N", "structure", "total_ms", "page_misses", "cpu_ms"},
		Notes: []string{
			"paper: NN-cell grows roughly logarithmically in N and stays fastest",
		},
	}
	for _, n := range cfg.Sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
		qs := queryPoints(rng, cfg.Queries, d)
		nnm, _, err := runNNCell(pts, qs, cfg, nncell.Options{Algorithm: buildAlgorithm(d)})
		if err != nil {
			return nil, fmt.Errorf("fig10 n=%d: %w", n, err)
		}
		for _, m := range []measured{nnm, runRStar(pts, qs, cfg), runXTree(pts, qs, cfg), runScan(pts, qs, cfg)} {
			t.AddRow(n, m.name, ms(m.totalTime), m.misses, ms(m.queryCPU))
		}
	}
	return t, nil
}

// Fig11 reproduces Figure 11: NN-cell versus X-tree on the (synthetic)
// Fourier data, d=8, over the database-size sweep.
func Fig11(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const d = 8
	t := &Table{
		ID:      "fig11",
		Title:   fmt.Sprintf("Fourier data: total search time vs database size (d=%d)", d),
		Headers: []string{"N", "structure", "total_ms", "cpu_ms", "page_misses"},
		Notes: []string{
			"paper: NN-cell consistently faster than the X-tree on real data (speed-up up to a factor 4)",
		},
	}
	for _, n := range cfg.Sizes {
		res, err := fourierComparison(cfg, n, d)
		if err != nil {
			return nil, err
		}
		for _, m := range res {
			t.AddRow(n, m.name, ms(m.totalTime), ms(m.queryCPU), m.misses)
		}
	}
	return t, nil
}

// Fig12 reproduces Figure 12: page accesses versus CPU time on the Fourier
// data (where the paper found NN-cell better on both axes).
func Fig12(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const d = 8
	t := &Table{
		ID:      "fig12",
		Title:   fmt.Sprintf("Fourier data: page accesses vs CPU time (d=%d)", d),
		Headers: []string{"N", "structure", "page_accesses", "page_misses", "cpu_ms_per_query"},
		Notes: []string{
			"paper: on Fourier data NN-cell wins both page accesses and CPU time",
		},
	}
	for _, n := range cfg.Sizes {
		res, err := fourierComparison(cfg, n, d)
		if err != nil {
			return nil, err
		}
		for _, m := range res {
			t.AddRow(n, m.name, m.accesses, m.misses, perQ(m.queryCPU, cfg.Queries))
		}
	}
	return t, nil
}

func fourierComparison(cfg Config, n, d int) ([]measured, error) {
	key := fmt.Sprintf("fourier/%d/%d/%d/%d/%d", cfg.Seed, n, cfg.Queries, cfg.CachePages, d)
	if res, ok := dimCache[key]; ok {
		return res, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
	pts := dataset.Deduplicate(dataset.Fourier(rng, n, d))
	// Query points follow the data distribution (content-based retrieval
	// queries look like the data), drawn from an independent sample.
	qpool := dataset.Fourier(rng, cfg.Queries, d)
	qs := make([]vec.Point, len(qpool))
	copy(qs, qpool)
	// The constraint cap bounds the Sphere selection, which otherwise
	// degenerates to nearly all points on clustered data (the pathology §2
	// of the paper reports for its real data); capping is sound (Lemma 1).
	nnm, _, err := runNNCell(pts, qs, cfg, nncell.Options{
		Algorithm:           nncell.Sphere,
		MaxConstraintPoints: 256,
	})
	if err != nil {
		return nil, fmt.Errorf("fourier n=%d: %w", n, err)
	}
	res := []measured{nnm, runXTree(pts, qs, cfg), runScan(pts, qs, cfg)}
	dimCache[key] = res
	return res, nil
}

// Fig13 reproduces Figure 13: the effect of decomposing the approximations,
// measured (like the paper) as the overlap of the exact (Correct)
// approximations with and without decomposition, per dimension. The index
// stores one rectangle per cell; the decomposed variant is its Decompose.
func Fig13(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig13",
		Title:   fmt.Sprintf("Effect of decomposition on overlap (uniform, N=%d, k=%d)", cfg.SmallN, cfg.Decompose),
		Headers: []string{"dim", "variant", "overlap", "volume_sum", "fragments"},
		Notes: []string{
			"paper: decomposition reduces overlap, and the improvement grows with dimension",
		},
	}
	dims := cfg.Dims
	if len(dims) > 3 {
		dims = dims[:3] // the paper shows d in {4, 8, 12}
	}
	for _, d := range dims {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(d)))
		pts := dataset.Deduplicate(dataset.Uniform(rng, cfg.SmallN, d))
		qs := queryPoints(rng, cfg.Queries, d)
		_, ix, err := runNNCell(pts, qs, cfg, nncell.Options{Algorithm: nncell.Correct})
		if err != nil {
			return nil, fmt.Errorf("fig13 d=%d: %w", d, err)
		}
		t.AddRow(d, "exact", f2(avgCandidates(ix, qs)), f2(ix.ApproxVolumeSum()), ix.Len())
		cells, err := ix.Decompose(cfg.Decompose)
		if err != nil {
			return nil, fmt.Errorf("fig13 d=%d decomposed: %w", d, err)
		}
		overlap, volume, fragments := fragmentOverlap(cells, ix.Bounds(), qs)
		t.AddRow(d, "decomposed", f2(overlap), f2(volume), fragments)
	}
	return t, nil
}

// fragmentOverlap measures a decomposition the way Candidates and
// ApproxVolumeSum measure the stored cells: the mean number of cells with a
// fragment containing a query, Σ vol(fragments ∩ DS)/vol(DS), and the number
// of fragments.
func fragmentOverlap(cells [][]vec.Rect, bounds vec.Rect, qs []vec.Point) (overlap, volume float64, fragments int) {
	total := 0
	for _, q := range qs {
		for _, frags := range cells {
			for _, r := range frags {
				if r.Contains(q) {
					total++
					break
				}
			}
		}
	}
	for _, frags := range cells {
		fragments += len(frags)
		for _, r := range frags {
			volume += r.IntersectionVolume(bounds)
		}
	}
	return float64(total) / float64(len(qs)), volume / bounds.Volume(), fragments
}

// Runner produces one figure's table.
type Runner func(Config) (*Table, error)

// Figures maps figure ids to runners, in the paper's order.
func Figures() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
	}
}

// All runs every figure.
func All(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, f := range Figures() {
		t, err := f.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
