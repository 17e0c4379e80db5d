package shard

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// syntheticPoint derives a unique in-bounds point from a counter via a
// 64-bit mix, so concurrent benchmark goroutines can generate collision-free
// insert streams without coordination beyond one atomic increment.
func syntheticPoint(n uint64, d int) vec.Point {
	p := make(vec.Point, d)
	x := n*0x9E3779B97F4A7C15 + 0x1234567
	for j := range p {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 33
		p[j] = float64(x>>11) / float64(1<<53)
		x += 0x9E3779B97F4A7C15
	}
	return p
}

// BenchmarkDynamicInsert measures the concurrent insert/delete steady state
// at several partition widths: every iteration inserts a fresh unique point
// and deletes it again, so the index size stays at the base N while the
// write lock pattern (one global lock vs one lock per shard) dominates.
func BenchmarkDynamicInsert(b *testing.B) {
	const d = 8
	for _, S := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", S), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			pts := dataset.Deduplicate(dataset.Uniform(rng, 512, d))
			s, err := Build(pts, vec.UnitCube(d), Options{
				Shards: S,
				Pager:  pager.Config{CachePages: 64},
				Index:  nncell.Options{Algorithm: nncell.Sphere},
			})
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					p := syntheticPoint(ctr.Add(1), d)
					gid, err := s.Insert(p)
					if err != nil {
						b.Error(err)
						return
					}
					if err := s.Delete(gid); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkShardedKNearest is the k = 10 query at the shape of the benchmark's
// lib-mixed-d4 workload: 2·10⁴ uniform points in d = 4 on four grid shards,
// NN-Direction cells, queries next to data points (a point plus N(0, 0.01)
// per coordinate, clamped to the cube). Beside ns/op it reports the points a
// query folds over all the shards it visits (folds/op: seeds and box passes,
// Stats.Candidates) and the shards visited (shards/op). A shard visited once
// the merge holds ten is asked only for the points within the tenth distance,
// so its folds are a handful, not a search of its own.
func BenchmarkShardedKNearest(b *testing.B) {
	const n, d, pool, k = 20000, 4, 4096, 10
	rng := rand.New(rand.NewSource(11))
	pts := dataset.Uniform(rng, n, d)
	s, err := Build(pts, vec.UnitCube(d), Options{
		Shards: 4,
		Route:  RouteGrid,
		Index:  nncell.Options{Algorithm: nncell.NNDirection},
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]vec.Point, pool)
	for i := range qs {
		q := pts[rng.Intn(n)].Clone()
		for j := range q {
			q[j] += rng.NormFloat64() * 0.01
		}
		vec.UnitCube(d).ClampInPlace(q)
		qs[i] = q
	}
	nbs := make([]nncell.Neighbor, 0, k)
	for _, q := range qs { // warm the pooled contexts
		if nbs, err = s.KNearestAppend(nbs[:0], q, k); err != nil {
			b.Fatal(err)
		}
	}
	folds, visits := s.Stats().Candidates, s.routeVisited.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nbs, err = s.KNearestAppend(nbs[:0], qs[i%pool], k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().Candidates-folds)/float64(b.N), "folds/op")
	b.ReportMetric(float64(s.routeVisited.Load()-visits)/float64(b.N), "shards/op")
}
