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

const benchQueryN = 250

func benchIndex(b *testing.B, alg Algorithm, d int) (*Index, []vec.Point) {
	b.Helper()
	pts := uniquePoints(b, dataset.NameUniform, int64(100*d+int(alg)), benchQueryN, d)
	ix := mustBuild(b, pts, Options{Algorithm: alg})
	rng := rand.New(rand.NewSource(99))
	qs := make([]vec.Point, 128)
	for i := range qs {
		qs[i] = randQuery(rng, d)
	}
	return ix, qs
}

func forBenchConfigs(b *testing.B, f func(b *testing.B, alg Algorithm, d int)) {
	for _, alg := range Algorithms() {
		for _, d := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/d=%d", alg, d), func(b *testing.B) {
				f(b, alg, d)
			})
		}
	}
}

// BenchmarkQueryNearest fails unless the warm query runs at 0 allocs/op (the
// bench-smoke gate, like BenchmarkSolveMBR's).
func BenchmarkQueryNearest(b *testing.B) {
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
		query := func(i int) {
			if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
		query(0) // warm the pooled context
		if !raceEnabled {
			k := 0
			if allocs := testing.AllocsPerRun(len(qs), func() { k++; query(k) }); allocs != 0 {
				b.Fatalf("warm NearestNeighbor allocates %v/op, want 0", allocs)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(i)
		}
	})
}

// BenchmarkQueryNearestPaged is the cell X-tree point query on the identical
// workload; the ratio to BenchmarkQueryNearest is what the directory saves.
func BenchmarkQueryNearestPaged(b *testing.B) {
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
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
		ix, _ := benchIndex(b, NNDirection, d)
		b.Run(fmt.Sprintf("cells/d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := i % benchQueryN
				ix.dir.remove(id)
				ix.dir.add(id, ix.cells[id])
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
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
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
	forBenchConfigs(b, func(b *testing.B, alg Algorithm, d int) {
		ix, qs := benchIndex(b, alg, d)
		nbs := make([]Neighbor, 0, 10)
		query := func(i int) {
			var err error
			if nbs, err = ix.KNearestAppend(nbs[:0], qs[i%len(qs)], 10); err != nil {
				b.Fatal(err)
			}
		}
		query(0) // warm the pooled context
		if !raceEnabled {
			k := 0
			if allocs := testing.AllocsPerRun(len(qs), func() { k++; query(k) }); allocs != 0 {
				b.Fatalf("warm KNearestAppend allocates %v/op, want 0", allocs)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(i)
		}
	})
}

func BenchmarkQueryBatch(b *testing.B) {
	ix, qs := benchIndex(b, NNDirection, 8)
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
