package nncell

import (
	"fmt"
	"math/rand"
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
// dimension and, when served is set, on the served shape.
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
			f(b, ix, qs)
		})
	}
}

// benchWarmQuery is the body of the NN and k-NN benchmarks: it fails unless
// the warm query allocates nothing, then times it and reports, beside ns/op,
// the points a query folds (Stats.Candidates; the same before and after a
// change to the kernels, or the change is not to the kernels alone).
func benchWarmQuery(b *testing.B, name string, ix *Index, queries int, query func(i int)) {
	query(0) // warm the pooled context
	if !raceEnabled {
		k := 0
		if allocs := testing.AllocsPerRun(queries, func() { k++; query(k) }); allocs != 0 {
			b.Fatalf("warm %s allocates %v/op, want 0", name, allocs)
		}
	}
	folds := ix.Stats().Candidates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
	b.ReportMetric(float64(ix.Stats().Candidates-folds)/float64(b.N), "folds/op")
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
