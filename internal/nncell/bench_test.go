package nncell

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// Query benchmarks of the zero-allocation engine: n = 250 points (the
// paper-scale configuration tracked in BENCH_query.json), every
// constraint-selection algorithm, the dimension sweep of the paper's
// evaluation. Run with -benchmem; the warm paths must report 0 allocs/op.
//
// At n = 250 a directory row is 4 words and a query folds a few dozen points,
// so the NN and k-NN benchmarks also run the served shape (the benchmark's
// lib-nn-d8: n = 10⁴, d = 8, NN-Direction, 8 192 queries), where a row is 157
// words and the row AND, the bit walk and the distance fold are the query.

const (
	benchQueryN  = 250
	benchQueries = 128

	servedN, servedD = 10000, 8
	servedQueries    = 8192
)

func benchIndex(b *testing.B, alg Algorithm, d, n, queries int) (*Index, []vec.Point) {
	b.Helper()
	pts := uniquePoints(b, dataset.NameUniform, int64(100*d+int(alg)), n, d)
	ix := mustBuild(b, pts, Options{Algorithm: alg})
	rng := rand.New(rand.NewSource(99))
	qs := make([]vec.Point, queries)
	for i := range qs {
		qs[i] = randQuery(rng, d)
	}
	return ix, qs
}

// forBenchConfigs runs f on the n = 250 index of every algorithm and
// dimension and, when served is set, on the served shape once per kernel set
// the CPU runs (…/kernel=go, …/kernel=avx2): the before/after row of a kernel
// change in one command.
func forBenchConfigs(b *testing.B, served bool, f func(b *testing.B, ix *Index, qs []vec.Point)) {
	for _, alg := range Algorithms() {
		for _, d := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", alg, d), func(b *testing.B) {
				ix, qs := benchIndex(b, alg, d, benchQueryN, benchQueries)
				f(b, ix, qs)
			})
		}
	}
	if served {
		b.Run(fmt.Sprintf("%s/d=%d/n=%d", NNDirection, servedD, servedN), func(b *testing.B) {
			ix, qs := benchIndex(b, NNDirection, servedD, servedN, servedQueries)
			for _, set := range kernelSets() {
				b.Run("kernel="+set, func(b *testing.B) {
					defer useKernelSet(set)()
					f(b, ix, qs)
				})
			}
		})
	}
}

// benchWarmQuery is the body of the NN and k-NN benchmarks: it fails unless
// the warm query allocates nothing and every kernel set folds the same points
// in the same box passes over one pass of the queries, then times it and
// reports, beside ns/op, the points a query folds (Stats.Candidates; the same
// before and after a change to the kernels, or the change is not to the
// kernels alone) and, where the query searches the point directory, its box
// passes (passes/op: one when the seeds' k-th distance settles the search).
func benchWarmQuery(b *testing.B, name string, ix *Index, queries int, query func(i int)) {
	query(0) // warm the pooled context
	var passFolds, passPasses []uint64
	for _, set := range kernelSets() {
		restore := useKernelSet(set)
		folds, passes := ix.Stats().Candidates, ix.stats.passes.Load()
		for i := 0; i < queries; i++ {
			query(i)
		}
		restore()
		passFolds = append(passFolds, ix.Stats().Candidates-folds)
		passPasses = append(passPasses, ix.stats.passes.Load()-passes)
	}
	if slices.Min(passFolds) != slices.Max(passFolds) || slices.Min(passPasses) != slices.Max(passPasses) {
		b.Fatalf("%s folds %v points in %v box passes over %d queries on kernel sets %v, want one count each", name, passFolds, passPasses, queries, kernelSets())
	}
	if !raceEnabled {
		k := 0
		if allocs := testing.AllocsPerRun(queries, func() { k++; query(k) }); allocs != 0 {
			b.Fatalf("warm %s allocates %v/op, want 0", name, allocs)
		}
	}
	folds, passes := ix.Stats().Candidates, ix.stats.passes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
	b.ReportMetric(float64(ix.Stats().Candidates-folds)/float64(b.N), "folds/op")
	if passes := ix.stats.passes.Load() - passes; passes > 0 {
		b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
	}
}

// BenchmarkQueryNearest fails unless the warm query runs at 0 allocs/op (the
// bench-smoke gate, like BenchmarkSolveMBR's).
func BenchmarkQueryNearest(b *testing.B) {
	forBenchConfigs(b, true, func(b *testing.B, ix *Index, qs []vec.Point) {
		benchWarmQuery(b, "NearestNeighbor", ix, len(qs), func(i int) {
			if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkQueryStages splits the NN and the k = 10 query of the served shape
// into their stages, once per kernel set the CPU runs: "and", the row AND of
// the query's stripes (cellDir.survivors); "list", the survivors listed with
// their squared distances (dirScratch.bounded at +Inf without minima, the
// candidates query's list: on AVX2 at d = 8 one pass, elsewhere appendBits
// then dist2s); "fold", the whole NN fold of a survivor
// set (dirScratch.nearest: on AVX2 at d = 8 the walk, the distances and the
// minimum in one pass, elsewhere the list and the Go minimum); "knn-seeds", the k-NN query's fold
// of the survivors into its best ten (seedTopK); "knn-box", its box pass's
// row AND at the tenth seed distance, the survivors masked out in the AND
// (pointDir.box); "knn-boxfold", that box folded into the seeds' best ten
// (bounded at the tenth distance, then InsertTopK). All but "and" run on the
// sets of the first stageSets queries, taken before the clock starts. The
// per-stage split of a kernel change is this one command.
func BenchmarkQueryStages(b *testing.B) {
	const stageSets, k = 512, 10
	ix, qs := benchIndex(b, NNDirection, servedD, servedN, servedQueries)
	sets := make([][]uint64, stageSets)
	seeds, boxes := make([][]Neighbor, stageSets), make([][]uint64, stageSets)
	bitsPerSet := 0.0
	for i := range sets {
		var ds dirScratch
		sets[i] = ix.dir.survivors(&ds, nil, qs[i])
		bitsPerSet += float64(onesCount(sets[i])) / stageSets
		seeds[i], _ = ds.seedTopK(nil, k, qs[i], ix.ptsFlat, sets[i])
		boxes[i], _ = ix.pdir.box(&ds, nil, qs[i], outwardRadius(seeds[i][k-1].Dist2), sets[i])
	}
	for _, set := range kernelSets() {
		b.Run("kernel="+set, func(b *testing.B) {
			defer useKernelSet(set)()
			var qc QueryCtx
			top := make([]Neighbor, 0, k)
			stage := func(name string, op func(i int)) {
				b.Run(name, func(b *testing.B) {
					op(0)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op(i)
					}
					b.ReportMetric(bitsPerSet, "survivors/op")
				})
			}
			stage("and", func(i int) { qc.surv = ix.dir.survivors(&qc.dirScratch, qc.surv, qs[i%len(qs)]) })
			stage("list", func(i int) { qc.bounded(qs[i%stageSets], ix.ptsFlat, sets[i%stageSets], math.Inf(1), nil) })
			stage("fold", func(i int) { qc.nearest(qs[i%stageSets], ix.ptsFlat, sets[i%stageSets]) })
			stage("knn-seeds", func(i int) { qc.seedTopK(top[:0], k, qs[i%stageSets], ix.ptsFlat, sets[i%stageSets]) })
			stage("knn-box", func(i int) {
				j := i % stageSets
				qc.box, _ = ix.pdir.box(&qc.dirScratch, qc.box, qs[j], outwardRadius(seeds[j][k-1].Dist2), sets[j])
			})
			stage("knn-boxfold", func(i int) {
				j := i % stageSets
				h := append(top[:0], seeds[j]...)
				kept, _ := qc.bounded(qs[j], ix.ptsFlat, boxes[j], h[k-1].Dist2, nil)
				for _, nb := range kept {
					h, _ = InsertTopK(h, k, nb)
				}
			})
		})
	}
}

// BenchmarkQueryNearestPaged is the cell X-tree point query on the identical
// workload; the ratio to BenchmarkQueryNearest is what the directory saves.
func BenchmarkQueryNearestPaged(b *testing.B) {
	forBenchConfigs(b, false, func(b *testing.B, ix *Index, qs []vec.Point) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.NearestNeighborPaged(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCellDirUpdate is the directories' share of the write path: for the
// cell directory remove + add of one stored cell (one cell recompute), for
// the point directory clear + set of one point (one delete and one insert).
func BenchmarkCellDirUpdate(b *testing.B) {
	for _, d := range []int{4, 8} {
		ix, _ := benchIndex(b, NNDirection, d, benchQueryN, benchQueries)
		b.Run(fmt.Sprintf("cells/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := i % benchQueryN
				ix.dir.remove(id)
				ix.dir.add(id, ix.cells.row(id))
			}
		})
		b.Run(fmt.Sprintf("points/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := i % benchQueryN
				ix.pdir.clear(id)
				ix.pdir.set(id, ix.point(id))
			}
		})
	}
}

func BenchmarkQueryCandidates(b *testing.B) {
	forBenchConfigs(b, false, func(b *testing.B, ix *Index, qs []vec.Point) {
		ids := make([]int, 0, benchQueryN)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids = ix.CandidatesAppend(ids[:0], qs[i%len(qs)])
		}
	})
}

// BenchmarkQueryKNearest is the k = 10 query on the same workload, into a
// reused result slice; like BenchmarkQueryNearest it fails unless the warm
// query runs at 0 allocs/op.
func BenchmarkQueryKNearest(b *testing.B) {
	forBenchConfigs(b, true, func(b *testing.B, ix *Index, qs []vec.Point) {
		nbs := make([]Neighbor, 0, 10)
		benchWarmQuery(b, "KNearestAppend", ix, len(qs), func(i int) {
			var err error
			if nbs, err = ix.KNearestAppend(nbs[:0], qs[i%len(qs)], 10); err != nil {
				b.Fatal(err)
			}
		})
	})
}

func BenchmarkQueryBatch(b *testing.B) {
	ix, qs := benchIndex(b, NNDirection, 8, benchQueryN, benchQueries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.NearestNeighborBatch(qs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertEager is the tracked write row: one eager NN-Direction
// insert into a built index, every affected cell re-solved before the call
// returns. Besides ms/op it reports the two counts that say what the time
// bought — LP solves and cells recomputed per insert — which depend on the
// points alone, so a change in ms/op at equal counts is a change in the
// write path's overhead.
func BenchmarkInsertEager(b *testing.B) {
	for _, c := range []struct{ d, n int }{{4, 5000}, {8, 2000}} {
		b.Run(fmt.Sprintf("d=%d/n=%d", c.d, c.n), func(b *testing.B) {
			pts := uniquePoints(b, dataset.NameUniform, int64(7*c.d), c.n+b.N, c.d)
			ix := mustBuild(b, pts[:c.n], Options{Algorithm: NNDirection})
			st0 := ix.Stats()
			b.ResetTimer()
			for _, p := range pts[c.n:] {
				if _, err := ix.Insert(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st, n := ix.Stats(), float64(len(pts)-c.n)
			b.ReportMetric(b.Elapsed().Seconds()*1e3/n, "ms/op")
			b.ReportMetric(float64(st.LPSolves-st0.LPSolves)/n, "lp_solves/op")
			b.ReportMetric(float64(st.Updates-st0.Updates)/n, "cells_updated/op")
		})
	}
}
