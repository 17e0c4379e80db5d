// Command experiments regenerates the paper's evaluation figures as text
// tables (or CSV). Each figure of Berchtold et al., "Fast Nearest Neighbor
// Search in High-dimensional Space" (ICDE 1998), has a runner; see
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	experiments -fig all
//	experiments -fig fig7,fig8 -n 10000 -queries 500
//	experiments -fig fig13 -small-n 800 -decompose 10 -csv
//	experiments -bench-build BENCH_build.json
//	experiments -bench-query BENCH_query.json
//	experiments -bench-dynamic BENCH_dynamic.json
//	experiments -bench-bulk BENCH_bulk.json
//	experiments -bench-route BENCH_route.json
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		figs      = flag.String("fig", "all", "comma-separated figure ids (fig4,fig5,fig7..fig13) or 'all'")
		n         = flag.Int("n", 0, "database size for dimension sweeps (default 2000)")
		smallN    = flag.Int("small-n", 0, "database size for LP-heavy figures 4/5/13 (default 400)")
		dims      = flag.String("dims", "", "comma-separated dimension sweep (default 4,8,12,16)")
		sizes     = flag.String("sizes", "", "comma-separated database sizes for figures 10/11/12")
		queries   = flag.Int("queries", 0, "queries per measurement (default 200)")
		seed      = flag.Int64("seed", 0, "random seed (default 1998)")
		cache     = flag.Int("cache", 0, "cache budget in pages per structure (default 64)")
		decompose = flag.Int("decompose", 0, "fragment budget for decomposition figures (default 10)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		benchBuild   = flag.String("bench-build", "", "measure Build for all four algorithms and write the JSON report to this path (skips figures)")
		benchServe   = flag.String("bench-serve", "", "measure the open-loop serve path (bare index vs result cache vs cache under churn) and write the JSON report to this path (skips figures)")
		benchQPS     = flag.Float64("bench-qps", 0, "arrival rate for -bench-serve (default 5000)")
		benchDur     = flag.Duration("bench-duration", 0, "run length per -bench-serve workload (default 2s)")
		benchScaleN  = flag.Int("bench-scale-n", 0, "when set with -bench-query, also run the large-n scale pass (NN and k=10 on the directories vs paged tree, data X-tree, scan and result cache) at n = 10^4 and this size, d = 4, 8, 16")
		benchQuery   = flag.String("bench-query", "", "measure NearestNeighbor (cell directory vs paged cell X-tree) for all four algorithms and write the JSON report to this path (skips figures)")
		benchDynamic = flag.String("bench-dynamic", "", "measure concurrent insert throughput at shard counts 1,2,4,8 and write the JSON report to this path (skips figures)")
		benchRoute   = flag.String("bench-route", "", "measure NN shards-visited and latency for hash vs grid routing at shard counts 16,64 and write the JSON report to this path (skips figures)")
		benchBulk    = flag.String("bench-bulk", "", "measure InsertBatch vs per-op Insert at bulk sizes plus the auto-threshold trade, and write the JSON report to this path (skips figures)")
		benchN       = flag.Int("bench-n", 0, "database size for -bench-build/-bench-query (default 250); overrides -bench-sizes with a single size for -bench-dynamic/-bench-bulk")
		benchSizes   = flag.String("bench-sizes", "", "comma-separated base sizes for -bench-dynamic (default 512,10000) and -bench-bulk (default 10000,100000)")
		benchDims    = flag.String("bench-dims", "", "comma-separated dimensions for -bench-build (default 4,8,16) and -bench-query (default 2,4,8,16)")
		benchShards  = flag.String("bench-shards", "", "comma-separated shard counts for -bench-dynamic (default 1,2,4,8)")
		benchWorkers = flag.Int("bench-workers", 0, "concurrent insert workers for -bench-dynamic (default 4)")
		benchBatch   = flag.Int("bench-batch", 0, "batch size for -bench-bulk (default 1024)")
		benchBase    = flag.Int("bench-baseline-ops", 0, "per-op insert count for the -bench-bulk baseline (default 6; halved at n>=50000)")
	)
	flag.Parse()

	if *benchBuild != "" {
		dims, err := parseInts(*benchDims)
		if err != nil {
			fatalf("bad -bench-dims: %v", err)
		}
		rep, err := experiments.BenchBuild(*benchN, dims)
		if err != nil {
			fatalf("bench-build: %v", err)
		}
		if err := rep.WriteJSON(*benchBuild); err != nil {
			fatalf("bench-build: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("%-13s d=%-3d %12.0f ns/op %10d allocs/op %12d B/op\n",
				r.Algorithm, r.Dim, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
		fmt.Printf("wrote %s\n", *benchBuild)
		return
	}

	if *benchQuery != "" {
		dims, err := parseInts(*benchDims)
		if err != nil {
			fatalf("bad -bench-dims: %v", err)
		}
		rep, err := experiments.BenchQuery(*benchN, dims)
		if err != nil {
			fatalf("bench-query: %v", err)
		}
		if *benchScaleN > 0 {
			rep.ScaleN = *benchScaleN
			for _, n := range slices.Compact([]int{min(10000, *benchScaleN), *benchScaleN}) {
				for _, d := range []int{4, 8, 16} {
					rows, err := experiments.BenchQueryScale(n, d)
					if err != nil {
						fatalf("bench-query scale pass: %v", err)
					}
					rep.Scale = append(rep.Scale, rows...)
				}
			}
		}
		if err := rep.WriteJSON(*benchQuery); err != nil {
			fatalf("bench-query: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("%-13s d=%-3d %9.0f ns/op %11.0f qps %6.2fx vs paged %7.1f cand/q %6.1f paged pages/q %2d allocs/op\n",
				r.Algorithm, r.Dim, r.NsPerOp, r.QPS, r.SpeedupVsPaged, r.CandidatesPerQuery, r.NodeAccessesPerQuery, r.AllocsPerOp)
		}
		for _, r := range rep.Scale {
			fmt.Printf("scale %-17s d=%-3d n=%-7d p50 %7.1f us directory | %7.1f paged cell tree | %7.1f data X-tree | %7.1f scan (%.1fx) | %.1f cand/q, %d verified\n",
				r.Algorithm, r.Dim, r.N, r.P50Ns/1e3, r.PagedP50Ns/1e3, r.DataXTreeP50Ns/1e3, r.ScanP50Ns/1e3, r.SpeedupVsScan, r.CandidatesPerQuery, r.Verified)
			fmt.Printf("scale %-17s d=%-3d n=%-7d %9.0f ns/op uncached | %7.0f ns/op cached (%6.1fx, hit rate %.3f)\n",
				r.Algorithm, r.Dim, r.N, r.NsPerOp, r.CachedNsPerOp, r.CacheSpeedup, r.HitRate)
			fmt.Printf("scale %-17s d=%-3d n=%-7d knn10 p50 %7.1f us directory | %7.1f data X-tree (%.1fx) | %7.1f scan | %.1f cand/q, %d verified\n",
				r.Algorithm, r.Dim, r.N, r.KNN10P50Ns/1e3, r.KNN10DataXTreeP50Ns/1e3, r.KNN10SpeedupVsXTree, r.KNN10ScanP50Ns/1e3, r.KNN10CandidatesPerQuery, r.KNN10Verified)
		}
		fmt.Printf("wrote %s\n", *benchQuery)
		return
	}

	if *benchServe != "" {
		rep, err := experiments.BenchServe(*benchN, 8, *benchQPS, *benchDur)
		if err != nil {
			fatalf("bench-serve: %v", err)
		}
		if err := rep.WriteJSON(*benchServe); err != nil {
			fatalf("bench-serve: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("%-12s sent=%-6d p50=%6.0fus p99=%7.0fus mean=%6.0fus shed=%-4d hits=%-6d hit_rate=%.3f invalidations=%d\n",
				r.Workload, r.Sent, r.ServiceP50Micros, r.ServiceP99Micros, r.ServiceMeanMicros, r.Shed, r.CacheHits, r.HitRate, r.Invalidations)
		}
		fmt.Printf("speedup p50 (nocache/cache): %.1fx\nwrote %s\n", rep.SpeedupP50, *benchServe)
		return
	}

	benchSizeList, err := parseInts(*benchSizes)
	if err != nil {
		fatalf("bad -bench-sizes: %v", err)
	}
	if *benchN > 0 && (*benchDynamic != "" || *benchBulk != "") {
		benchSizeList = []int{*benchN}
	}

	if *benchDynamic != "" {
		shards, err := parseInts(*benchShards)
		if err != nil {
			fatalf("bad -bench-shards: %v", err)
		}
		rep, err := experiments.BenchDynamic(benchSizeList, 8, shards, *benchWorkers)
		if err != nil {
			fatalf("bench-dynamic: %v", err)
		}
		if err := rep.WriteJSON(*benchDynamic); err != nil {
			fatalf("bench-dynamic: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("n=%-6d shards=%-2d d=%-3d %-12s lazy=%-5v %12.0f ns/insert %10.0f inserts/s %6.2fx vs 1 shard\n",
				r.BaseN, r.Shards, r.Dim, r.Algorithm, r.LazyRepair, r.NsPerInsert, r.InsertsPerSec, r.SpeedupVs1Shard)
		}
		fmt.Printf("wrote %s\n", *benchDynamic)
		return
	}

	if *benchRoute != "" {
		shards, err := parseInts(*benchShards)
		if err != nil {
			fatalf("bad -bench-shards: %v", err)
		}
		rep, err := experiments.BenchRoute(*benchN, 8, shards, *queries)
		if err != nil {
			fatalf("bench-route: %v", err)
		}
		if err := rep.WriteJSON(*benchRoute); err != nil {
			fatalf("bench-route: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("shards=%-3d route=%-5s workload=%-8s mean visited %6.2f   p50=%7.1fus p99=%7.1fus   verified=%d\n",
				r.Shards, r.Policy, r.Workload, r.MeanShardsVisited, r.P50Micros, r.P99Micros, r.Verified)
		}
		fmt.Printf("wrote %s\n", *benchRoute)
		return
	}

	if *benchBulk != "" {
		rep, err := experiments.BenchBulk(benchSizeList, 8, *benchBatch, *benchBase)
		if err != nil {
			fatalf("bench-bulk: %v", err)
		}
		if err := rep.WriteJSON(*benchBulk); err != nil {
			fatalf("bench-bulk: %v", err)
		}
		for _, r := range rep.Results {
			fmt.Printf("n=%-6d batch=%-5d baseline %10.0f ns/insert | ack %10.0f ns/insert (%7.1fx) | flush %10.0f ns/insert (%6.1fx) | stale@ack %d\n",
				r.N, r.BatchSize, r.BaselineNsPerInsert, r.AckNsPerInsert, r.SpeedupAck, r.FlushNsPerInsert, r.SpeedupFlush, r.StaleAtAck)
		}
		for _, a := range rep.AutoThreshold {
			fmt.Printf("auto-threshold %-16s n=%-5d build %8.0f ns/pt %8.1f cons/cell | query %8.0f ns %6.1f cand/q recall=%.3f\n",
				a.Variant, a.N, a.BuildNsPerPoint, a.ConstraintsPerCell, a.QueryNsPerOp, a.CandidatesPerQuery, a.Recall)
		}
		fmt.Printf("wrote %s\n", *benchBulk)
		return
	}

	cfg := experiments.Config{
		N: *n, SmallN: *smallN, Queries: *queries, Seed: *seed,
		CachePages: *cache, Decompose: *decompose,
	}
	if cfg.Dims, err = parseInts(*dims); err != nil {
		fatalf("bad -dims: %v", err)
	}
	if cfg.Sizes, err = parseInts(*sizes); err != nil {
		fatalf("bad -sizes: %v", err)
	}

	want := map[string]bool{}
	all := strings.TrimSpace(*figs) == "all" || *figs == ""
	for _, id := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, f := range experiments.Figures() {
		if !all && !want[f.ID] {
			continue
		}
		table, err := f.Run(cfg)
		if err != nil {
			fatalf("%s: %v", f.ID, err)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", table.ID, table.Title, table.CSV())
		} else {
			fmt.Println(table.String())
		}
		ran++
	}
	if ran == 0 {
		fatalf("no figure matched %q; known ids: fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13", *figs)
	}
}

func parseInts(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
