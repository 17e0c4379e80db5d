// Package repro's root benchmark suite: one testing.B benchmark per figure
// of the paper's evaluation (there are no numbered tables in the paper; the
// evaluation is Figures 4, 5 and 7–13), plus ablation benchmarks for the
// design choices called out in DESIGN.md. Figure benchmarks run the
// corresponding experiment harness at a reduced, fixed scale and report the
// headline quantity as a custom metric, so `go test -bench .` both exercises
// the full pipeline and prints the reproduction's shape.
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// benchCfg is the fixed, small experiment scale used by the figure benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		N:       1000,
		SmallN:  150,
		Dims:    []int{4, 8},
		Sizes:   []int{500, 1000},
		Queries: 100,
		Seed:    1998,
	}
}

func runFigure(b *testing.B, run experiments.Runner, metric func(*experiments.Table) (float64, string)) {
	b.Helper()
	cfg := benchCfg()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if metric != nil && last != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
	}
}

func lastFloat(tb *experiments.Table, col int) float64 {
	row := tb.Rows[len(tb.Rows)-1]
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkFig4Approximation regenerates Figure 4 (build time and overlap of
// the four approximation algorithms) and reports the final overlap value.
func BenchmarkFig4Approximation(b *testing.B) {
	runFigure(b, experiments.Fig4, func(tb *experiments.Table) (float64, string) {
		return lastFloat(tb, 3), "overlap"
	})
}

// BenchmarkFig5QualityPerf regenerates Figure 5 (quality-to-performance).
func BenchmarkFig5QualityPerf(b *testing.B) {
	runFigure(b, experiments.Fig5, nil)
}

// BenchmarkFig7SearchTime regenerates Figure 7 (total search time by
// structure and dimension).
func BenchmarkFig7SearchTime(b *testing.B) {
	runFigure(b, experiments.Fig7, nil)
}

// BenchmarkFig8Speedup regenerates Figure 8 and reports the highest-dimension
// speed-up of NN-cell over the R*-tree in percent.
func BenchmarkFig8Speedup(b *testing.B) {
	runFigure(b, experiments.Fig8, func(tb *experiments.Table) (float64, string) {
		return lastFloat(tb, 3), "%speedup"
	})
}

// BenchmarkFig9PagesCPU regenerates Figure 9 (page accesses vs CPU time).
func BenchmarkFig9PagesCPU(b *testing.B) {
	runFigure(b, experiments.Fig9, nil)
}

// BenchmarkFig10DBSize regenerates Figure 10 (scaling with database size).
func BenchmarkFig10DBSize(b *testing.B) {
	runFigure(b, experiments.Fig10, nil)
}

// BenchmarkFig11Fourier regenerates Figure 11 (Fourier data, total time).
func BenchmarkFig11Fourier(b *testing.B) {
	runFigure(b, experiments.Fig11, nil)
}

// BenchmarkFig12FourierPagesCPU regenerates Figure 12 (Fourier data, pages
// vs CPU).
func BenchmarkFig12FourierPagesCPU(b *testing.B) {
	runFigure(b, experiments.Fig12, nil)
}

// BenchmarkFig13Decomposition regenerates Figure 13 and reports the
// decomposed overlap at the highest dimension.
func BenchmarkFig13Decomposition(b *testing.B) {
	runFigure(b, experiments.Fig13, func(tb *experiments.Table) (float64, string) {
		return lastFloat(tb, 2), "overlap"
	})
}

// --- Construction hot path ------------------------------------------------

// BenchmarkBuild measures full index construction (ns/op and allocs/op) for
// every constraint-selection algorithm across dimensions — the quantity the
// paper's §2 optimizes — and reports the LP work of one build next to them.
func BenchmarkBuild(b *testing.B) {
	const n = 250
	for ai, alg := range nncell.Algorithms() {
		for _, d := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", alg, d), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(100*d + ai)))
				pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
				forKernelSets(b, func(b *testing.B, _ string) {
					var stats nncell.Stats
					build := func() {
						ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{}),
							nncell.Options{Algorithm: alg})
						if err != nil {
							b.Fatal(err)
						}
						stats = ix.Stats()
					}
					// NN-Direction's neighbor-pool search, constraint matrix, LPs and
					// solved MBR run on per-worker scratch, every cell is written into
					// its row of one float32 slab, and no tree is built, so a build
					// allocates a few dozen times in all — the slab, the coordinates,
					// the directories and the workers — and nothing per cell (0.45 per
					// cell measured at n = 250).
					if alg == nncell.NNDirection {
						if perCell := testing.AllocsPerRun(1, build) / float64(len(pts)); perCell > 1 {
							b.Fatalf("Build allocates %.2f times per cell, want nothing per cell (<= 1)", perCell)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						build()
					}
					b.ReportMetric(float64(stats.LPSolves), "lp_solves/op")
					b.ReportMetric(float64(stats.LPPivots), "lp_pivots/op")
				})
			})
		}
	}

	// The served shape (the benchmark's lib-nn-d8): besides ms/op it reports
	// the heap a built index retains per point — 64 B of coordinates and 8 B
	// of their byte codes, a 64 B float32 cell row and 64 B in each directory
	// at d = 8, 270 B measured — and fails above 280 B, so that neither a
	// resident tree (another ~280 B per point) nor per-cell float64
	// rectangles (another ~112 B) can come back unnoticed. It fails, too,
	// unless every kernel set pivots alike.
	b.Run("NN-Direction/d=8/n=10000", func(b *testing.B) {
		const n, d = 10000, 8
		b.StopTimer()
		pts := dataset.Deduplicate(dataset.Uniform(rand.New(rand.NewSource(1)), n, d))
		var goPivots uint64
		forKernelSets(b, func(b *testing.B, set string) {
			b.StopTimer()
			var ix *nncell.Index
			heap := func() uint64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			for i := 0; i < b.N; i++ {
				ix = nil
				before := heap()
				b.StartTimer()
				var err error
				if ix, err = nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{}),
					nncell.Options{Algorithm: nncell.NNDirection}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				perPoint := float64(heap()-before) / float64(len(pts))
				if perPoint > 280 {
					b.Fatalf("a built index retains %.0f B per point, want <= 280", perPoint)
				}
				b.ReportMetric(perPoint, "retained_B/point")
				pivots := ix.Stats().LPPivots
				if pivots > 2_200_000 {
					b.Fatalf("Build took %d LP pivots, want <= 2.2 M (a ratio test that stalls on axis objectives takes 2.9 M)", pivots)
				}
				if set == "go" {
					goPivots = pivots
				} else if goPivots != 0 && pivots != goPivots {
					b.Fatalf("Build took %d LP pivots on the %s kernels, %d on go", pivots, set, goPivots)
				}
				b.ReportMetric(float64(pivots), "lp_pivots/op")
			}
			runtime.KeepAlive(ix)
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	})
}

// forKernelSets runs f as one sub-benchmark per kernel set this CPU runs
// (internal/cpu): …/kernel=go, then …/kernel=avx2 where the CPU has AVX2 —
// the before/after row of a kernel change, which may move ns/op only.
func forKernelSets(b *testing.B, f func(b *testing.B, set string)) {
	sets := []string{"go"}
	if cpu.AVX2 {
		sets = append(sets, "avx2")
	}
	for _, set := range sets {
		b.Run("kernel="+set, func(b *testing.B) {
			saved := cpu.AVX2
			cpu.AVX2 = set == "avx2"
			defer func() { cpu.AVX2 = saved }()
			f(b, set)
		})
	}
}

// BenchmarkSolveMBR isolates the warm 2·d-extent LP loop over one shared,
// pre-loaded constraint set — the per-cell inner loop of construction — and
// reports the pivots of the 2·d solves next to their time. The solver reuse
// contract requires 0 allocs/op here.
func BenchmarkSolveMBR(b *testing.B) {
	for _, d := range []int{4, 8, 16} {
		for _, m := range []int{50, 500} {
			b.Run(fmt.Sprintf("d=%d/m=%d", d, m), func(b *testing.B) {
				// Seeded per case, so the polytope — and with it pivots/op —
				// is the same at every b.N the harness tries.
				rng := rand.New(rand.NewSource(int64(17 + 1000*d + m)))
				p := &lp.Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
				center := make([]float64, d)
				for j := 0; j < d; j++ {
					p.Hi[j] = 1
					center[j] = 0.3 + 0.4*rng.Float64()
				}
				for i := 0; i < m; i++ {
					a := make([]float64, d)
					dot := 0.0
					for j := 0; j < d; j++ {
						a[j] = rng.NormFloat64()
						dot += a[j] * center[j]
					}
					p.Cons = append(p.Cons, lp.Constraint{A: a, B: dot + 0.1*rng.Float64()})
				}
				forKernelSets(b, func(b *testing.B, _ string) {
					var s lp.Solver
					if err := s.Load(p); err != nil {
						b.Fatal(err)
					}
					c := make([]float64, d)
					pivots := 0
					extents := func() {
						pivots = 0
						for j := 0; j < d; j++ {
							for _, sign := range [2]float64{1, -1} {
								c[j] = sign
								res, err := s.Solve(c)
								if err != nil {
									b.Fatal(err)
								}
								pivots += res.Iterations
							}
							c[j] = 0
						}
					}
					if allocs := testing.AllocsPerRun(1, extents); allocs != 0 {
						b.Fatalf("warm extent loop allocates %v/op, want 0", allocs)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						extents()
					}
					b.ReportMetric(float64(pivots), "pivots/op")
				})
			})
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationDecompK varies the fragment budget k of Decompose over one
// built index and reports the approximation volume sum of the fragments
// (lower = tighter approximations).
func BenchmarkAblationDecompK(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := dataset.Deduplicate(dataset.Diagonal(rng, 300, 6, 0.02))
	ix, err := nncell.Build(pts, vec.UnitCube(6), pager.New(pager.Config{}), nncell.Options{Algorithm: nncell.Correct})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var vol float64
			for i := 0; i < b.N; i++ {
				cells, err := ix.Decompose(k)
				if err != nil {
					b.Fatal(err)
				}
				vol = 0
				for _, frags := range cells {
					for _, r := range frags {
						vol += r.Volume()
					}
				}
			}
			b.ReportMetric(vol, "volume-sum")
		})
	}
}

// BenchmarkAblationMaxOverlap varies the X-tree supernode threshold and
// reports query page accesses on clustered rectangle data.
func BenchmarkAblationMaxOverlap(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := dataset.Deduplicate(dataset.Clustered(rng, 3000, 12, 10, 0.05))
	qs := dataset.Uniform(rand.New(rand.NewSource(8)), 200, 12)
	for _, mo := range []float64{0.05, 0.2, 0.5} {
		b.Run(fmt.Sprintf("maxOverlap=%.2f", mo), func(b *testing.B) {
			var perQuery float64
			for i := 0; i < b.N; i++ {
				pg := pager.New(pager.Config{CachePages: 64})
				tr := xtree.New(12, pg, xtree.Options{MaxOverlap: mo})
				for j, p := range pts {
					tr.Insert(vec.PointRect(p), int64(j))
				}
				pg.ResetStats()
				for _, q := range qs {
					tr.NearestNeighbor(q)
				}
				perQuery = float64(pg.Stats().Accesses) / float64(len(qs))
			}
			b.ReportMetric(perQuery, "pages/query")
		})
	}
}

// BenchmarkAblationCache varies the LRU budget and reports the miss rate of
// NN-cell queries.
func BenchmarkAblationCache(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := dataset.Deduplicate(dataset.Uniform(rng, 2000, 8))
	qs := dataset.Uniform(rand.New(rand.NewSource(10)), 300, 8)
	for _, cache := range []int{0, 16, 64, 256} {
		b.Run(fmt.Sprintf("cache=%d", cache), func(b *testing.B) {
			pg := pager.New(pager.Config{CachePages: cache})
			ix, err := nncell.Build(pts, vec.UnitCube(8), pg, nncell.Options{Algorithm: nncell.Sphere})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var missRate float64
			for i := 0; i < b.N; i++ {
				pg.ResetStats()
				for _, q := range qs {
					if _, err := ix.NearestNeighbor(q); err != nil {
						b.Fatal(err)
					}
				}
				s := pg.Stats()
				if s.Accesses > 0 {
					missRate = float64(s.Misses) / float64(s.Accesses)
				}
			}
			b.ReportMetric(missRate, "miss-rate")
		})
	}
}

// BenchmarkAblationLPSolver compares the production dual simplex against
// Seidel's randomized algorithm on identical NN-cell extent problems.
func BenchmarkAblationLPSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	d, m := 6, 200
	p := &lp.Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
	center := make([]float64, d)
	for j := 0; j < d; j++ {
		p.Hi[j] = 1
		center[j] = 0.3 + 0.4*rng.Float64()
	}
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		dot := 0.0
		for j := 0; j < d; j++ {
			a[j] = rng.NormFloat64()
			dot += a[j] * center[j]
		}
		p.Cons = append(p.Cons, lp.Constraint{A: a, B: dot + 0.1*rng.Float64()})
	}
	c := make([]float64, d)
	c[0] = 1
	b.Run("dual-simplex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.Maximize(p, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seidel", func(b *testing.B) {
		b.ReportAllocs()
		srng := rand.New(rand.NewSource(14))
		for i := 0; i < b.N; i++ {
			if _, err := lp.MaximizeSeidel(p, c, srng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNNCellQueryScaling reports pure query latency of the NN-cell
// index across dimensions at fixed N.
func BenchmarkNNCellQueryScaling(b *testing.B) {
	for _, d := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(d)))
			pts := dataset.Deduplicate(dataset.Uniform(rng, 2000, d))
			ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 64}),
				nncell.Options{Algorithm: nncell.NNDirection})
			if err != nil {
				b.Fatal(err)
			}
			qs := dataset.Uniform(rand.New(rand.NewSource(99)), 128, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
