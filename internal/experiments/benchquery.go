package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// QueryBenchResult is one measured NN-query configuration of the query
// benchmark (BENCH_query.json): latency and allocation profile of the served
// query (cell directory) next to the paged query on the cell X-tree, plus
// the work counters that explain them.
type QueryBenchResult struct {
	Algorithm string `json:"algorithm"`
	Dim       int    `json:"dim"`
	N         int    `json:"n"`

	// NearestNeighbor: the cell-directory point query.
	NsPerOp     float64 `json:"ns_per_op"`
	QPS         float64 `json:"qps"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// NearestNeighborPaged on the identical index and query stream.
	PagedNsPerOp float64 `json:"paged_ns_per_op"`
	PagedQPS     float64 `json:"paged_qps"`

	// SpeedupVsPaged = PagedNsPerOp / NsPerOp.
	SpeedupVsPaged float64 `json:"speedup_vs_paged"`

	// Per-query work, averaged over one instrumented pass of each path:
	// distance evaluations of the served query (stripe survivors) and pages
	// the paged query touches.
	CandidatesPerQuery   float64 `json:"candidates_per_query"`
	NodeAccessesPerQuery float64 `json:"node_accesses_per_query"`
	Fallbacks            uint64  `json:"fallbacks"`
}

// QueryScaleResult is one large-n measurement of the scale pass: one size and
// dimension on an NN-Direction index. Medians of individually timed
// calls put the served queries, NN and k = 10, next to their alternatives on
// the same points and query pool — the sequential scan, the paged cell X-tree,
// best-first search on an X-tree bulk-loaded from the data points — and the
// mean-based columns compare the NN query with the exact result cache on a
// repeating (hot) pool.
type QueryScaleResult struct {
	Algorithm string `json:"algorithm"`
	Dim       int    `json:"dim"`
	N         int    `json:"n"`

	P50Ns          float64 `json:"p50_ns"`
	PagedP50Ns     float64 `json:"paged_p50_ns"`
	DataXTreeP50Ns float64 `json:"data_xtree_p50_ns"`
	ScanP50Ns      float64 `json:"scan_p50_ns"`
	SpeedupVsScan  float64 `json:"speedup_vs_scan"`  // ScanP50Ns / P50Ns
	SpeedupVsPaged float64 `json:"speedup_vs_paged"` // PagedP50Ns / P50Ns
	// CandidatesPerQuery is the served query's distance evaluations;
	// Verified counts pool queries on which NearestNeighbor and
	// NearestNeighborPaged both returned the scan's answer (a mismatch
	// aborts the pass, so it equals the pool size).
	CandidatesPerQuery float64 `json:"candidates_per_query"`
	Verified           int     `json:"verified"`

	// KNearest(q, 10) on the point directory, the same query on the data
	// X-tree and a bounded top-10 pass over all points, as p50s. Candidates
	// are the distance evaluations of the directory's search (cell-directory
	// seeds plus box survivors); KNN10Verified counts pool queries whose ten
	// (id, Dist2) pairs equalled the scan pass's, in order.
	KNN10P50Ns              float64 `json:"knn10_p50_ns"`
	KNN10DataXTreeP50Ns     float64 `json:"knn10_data_xtree_p50_ns"`
	KNN10ScanP50Ns          float64 `json:"knn10_scan_p50_ns"`
	KNN10SpeedupVsXTree     float64 `json:"knn10_speedup_vs_data_xtree"` // KNN10DataXTreeP50Ns / KNN10P50Ns
	KNN10CandidatesPerQuery float64 `json:"knn10_candidates_per_query"`
	KNN10Verified           int     `json:"knn10_verified"`

	NsPerOp float64 `json:"ns_per_op"`
	QPS     float64 `json:"qps"`

	// The identical query stream through rescache.Front; after the first
	// pool pass every query is a hit, so this approximates the hot-spot
	// serving regime the cache targets.
	CachedNsPerOp float64 `json:"cached_ns_per_op"`
	CachedQPS     float64 `json:"cached_qps"`
	CacheSpeedup  float64 `json:"cache_speedup"` // NsPerOp / CachedNsPerOp
	HitRate       float64 `json:"hit_rate"`
}

// QueryBenchReport is the machine-readable query-performance record emitted
// by `cmd/experiments -bench-query` so the QPS trajectory is tracked across
// PRs.
type QueryBenchReport struct {
	N       int                `json:"n"`
	Dims    []int              `json:"dims"`
	Queries int                `json:"queries"`
	Go      string             `json:"go"`
	Results []QueryBenchResult `json:"results"`

	// Scale holds the optional -bench-scale-n pass: n = 1e4 and ScaleN
	// (typically 1e5), each at d = 4, 8 and 16.
	ScaleN int                `json:"scale_n,omitempty"`
	Scale  []QueryScaleResult `json:"scale,omitempty"`
}

// BenchQuery measures NearestNeighbor for every constraint-selection
// algorithm at each dimension via testing.Benchmark, next to
// NearestNeighborPaged, over a shared in-space query stream.
func BenchQuery(n int, dims []int) (*QueryBenchReport, error) {
	if n <= 0 {
		n = 250
	}
	if len(dims) == 0 {
		dims = []int{2, 4, 8, 16}
	}
	const numQueries = 128
	rep := &QueryBenchReport{N: n, Dims: dims, Queries: numQueries, Go: runtime.Version()}
	for ai, alg := range nncell.Algorithms() {
		for _, d := range dims {
			rng := rand.New(rand.NewSource(int64(100*d + ai)))
			pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
			pg := pager.New(pager.Config{CachePages: 64})
			ix, err := nncell.Build(pts, vec.UnitCube(d), pg, nncell.Options{Algorithm: alg})
			if err != nil {
				return nil, err
			}
			qs := queryPoints(rand.New(rand.NewSource(99)), numQueries, d)

			// One instrumented pass per path measures the per-query work:
			// distance evaluations of the served query, pages of the paged.
			pass := func(query func(vec.Point) (nncell.Neighbor, error)) error {
				for _, q := range qs {
					if _, err := query(q); err != nil {
						return err
					}
				}
				return nil
			}
			st0 := ix.Stats()
			if err := pass(ix.NearestNeighbor); err != nil {
				return nil, err
			}
			st1 := ix.Stats()
			pages0 := pg.Stats().Accesses
			if err := pass(ix.NearestNeighborPaged); err != nil {
				return nil, err
			}
			pages := pg.Stats().Accesses - pages0

			var benchErr error
			measure := func(query func(vec.Point) (nncell.Neighbor, error)) testing.BenchmarkResult {
				return testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := query(qs[i%len(qs)]); err != nil {
							benchErr = err
							b.Fatal(err)
						}
					}
				})
			}
			dir := measure(ix.NearestNeighbor)
			paged := measure(ix.NearestNeighborPaged)
			if benchErr != nil {
				return nil, benchErr
			}

			dirNs := float64(dir.NsPerOp())
			pagedNs := float64(paged.NsPerOp())
			rep.Results = append(rep.Results, QueryBenchResult{
				Algorithm:            alg.String(),
				Dim:                  d,
				N:                    n,
				NsPerOp:              dirNs,
				QPS:                  1e9 / dirNs,
				AllocsPerOp:          dir.AllocsPerOp(),
				BytesPerOp:           dir.AllocedBytesPerOp(),
				PagedNsPerOp:         pagedNs,
				PagedQPS:             1e9 / pagedNs,
				SpeedupVsPaged:       pagedNs / dirNs,
				CandidatesPerQuery:   float64(st1.Candidates-st0.Candidates) / numQueries,
				NodeAccessesPerQuery: float64(pages) / numQueries,
				Fallbacks:            st1.Fallbacks - st0.Fallbacks,
			})
		}
	}
	return rep, nil
}

// p50Ns times calls of fn one by one, after a warm-up pass over the pool,
// and returns the median in nanoseconds.
func p50Ns(calls, pool int, fn func(i int)) float64 {
	for i := 0; i < pool; i++ {
		fn(i)
	}
	ns := make([]float64, calls)
	for i := range ns {
		start := time.Now()
		fn(i)
		ns[i] = float64(time.Since(start))
	}
	sort.Float64s(ns)
	return ns[calls/2]
}

// BenchQueryScale measures NearestNeighbor and KNearest(10) at large n
// (default 1e5, d = 8) against the scan, the paged cell X-tree and the data
// X-tree, and NearestNeighbor behind the exact result cache, on an
// NN-Direction index: the selection that stays tractable at this scale, and
// the one the served system runs. The row is meant to be attached to
// QueryBenchReport.Scale.
func BenchQueryScale(n, d int) (QueryScaleResult, error) {
	if n <= 0 {
		n = 100000
	}
	if d <= 0 {
		d = 8
	}
	const numQueries = 128
	const name = "nn-direction"
	rng := rand.New(rand.NewSource(int64(1000 + d)))
	pts := dataset.Deduplicate(dataset.Uniform(rng, n, d))
	ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 256}), nncell.Options{Algorithm: nncell.NNDirection})
	if err != nil {
		return QueryScaleResult{}, err
	}
	qs := queryPoints(rand.New(rand.NewSource(99)), numQueries, d)

	// Every pool answer of both index paths, and of the k-NN query,
	// against the scan.
	sc := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{CachePages: 256}))
	const k = 10
	top := make([]nncell.Neighbor, 0, k)
	scanKNN := func(q vec.Point) []nncell.Neighbor {
		top = top[:0]
		for id, p := range pts {
			top, _ = nncell.InsertTopK(top, k, nncell.Neighbor{ID: id, Dist2: vec.Euclidean{}.Dist2(q, p)})
		}
		return top
	}
	nbs := make([]nncell.Neighbor, 0, k)
	for i, q := range qs {
		if nbs, err = ix.KNearestAppend(nbs[:0], q, k); err != nil || !slices.Equal(nbs, scanKNN(q)) {
			return QueryScaleResult{}, fmt.Errorf("%s: KNearest(query %d, %d) = %+v, %v; the scan says %+v", name, i, k, nbs, err, scanKNN(q))
		}
		wantID, wantD2 := sc.Nearest(q)
		want := nncell.Neighbor{ID: wantID, Dist2: wantD2}
		if got, err := ix.NearestNeighbor(q); err != nil || got != want {
			return QueryScaleResult{}, fmt.Errorf("%s: NearestNeighbor(query %d) = %+v, %v; the scan says %+v", name, i, got, err, want)
		}
		if got, err := ix.NearestNeighborPaged(q); err != nil || got != want {
			return QueryScaleResult{}, fmt.Errorf("%s: NearestNeighborPaged(query %d) = %+v, %v; the scan says %+v", name, i, got, err, want)
		}
	}

	// The timed calls repeat the pool just verified, so they cannot fail.
	res := QueryScaleResult{Algorithm: name, Dim: d, N: len(pts), Verified: len(qs), KNN10Verified: len(qs)}
	st0 := ix.Stats()
	res.P50Ns = p50Ns(4096, len(qs), func(i int) { ix.NearestNeighbor(qs[i%len(qs)]) })
	st1 := ix.Stats()
	res.CandidatesPerQuery = float64(st1.Candidates-st0.Candidates) / float64(st1.Queries-st0.Queries)
	res.PagedP50Ns = p50Ns(1024, len(qs), func(i int) { ix.NearestNeighborPaged(qs[i%len(qs)]) })
	res.ScanP50Ns = p50Ns(256, 0, func(i int) { sc.Nearest(qs[i%len(qs)]) })
	items := make([]xtree.Entry, len(pts))
	for i, p := range pts {
		items[i] = xtree.Entry{Rect: vec.PointRect(p), Data: int64(i)}
	}
	dt := xtree.BulkLoad(d, pager.New(pager.Config{CachePages: 256}), xtree.Options{}, items)
	var qc xtree.QueryCtx
	res.DataXTreeP50Ns = p50Ns(1024, len(qs), func(i int) { dt.NearestNeighborCtx(&qc, qs[i%len(qs)]) })
	res.SpeedupVsScan = res.ScanP50Ns / res.P50Ns
	res.SpeedupVsPaged = res.PagedP50Ns / res.P50Ns

	st0 = ix.Stats()
	res.KNN10P50Ns = p50Ns(4096, len(qs), func(i int) { nbs, _ = ix.KNearestAppend(nbs[:0], qs[i%len(qs)], k) })
	st1 = ix.Stats()
	res.KNN10CandidatesPerQuery = float64(st1.Candidates-st0.Candidates) / float64(st1.Queries-st0.Queries)
	var tnbs []xtree.Neighbor
	res.KNN10DataXTreeP50Ns = p50Ns(1024, len(qs), func(i int) { tnbs = dt.KNearestCtx(&qc, qs[i%len(qs)], k, tnbs[:0]) })
	res.KNN10ScanP50Ns = p50Ns(256, 0, func(i int) { scanKNN(qs[i%len(qs)]) })
	res.KNN10SpeedupVsXTree = res.KNN10DataXTreeP50Ns / res.KNN10P50Ns

	var benchErr error
	raw := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.NearestNeighbor(qs[i%len(qs)]); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	front := rescache.NewFront(ix, 1<<12)
	cached := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := front.NearestNeighbor(qs[i%len(qs)]); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return QueryScaleResult{}, benchErr
	}
	st := front.Cache().Stats()
	res.NsPerOp = float64(raw.NsPerOp())
	res.QPS = 1e9 / res.NsPerOp
	res.CachedNsPerOp = float64(cached.NsPerOp())
	res.CachedQPS = 1e9 / res.CachedNsPerOp
	if res.CachedNsPerOp > 0 {
		res.CacheSpeedup = res.NsPerOp / res.CachedNsPerOp
	}
	if total := st.Hits + st.Misses; total > 0 {
		res.HitRate = float64(st.Hits) / float64(total)
	}
	return res, nil
}

// WriteJSON writes the report to path, indented for diff-friendly tracking.
func (r *QueryBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
