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
//	experiments -bench-query BENCH_query.json
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
		cache     = flag.Int("cache", 0, "cache budget in pages per structure (default 1024)")
		decompose = flag.Int("decompose", 0, "fragment budget for decomposition figures (default 10)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		benchQuery  = flag.String("bench-query", "", "measure NearestNeighbor (cell directory vs paged cell X-tree) for all four algorithms and write the JSON report to this path (skips figures)")
		benchScaleN = flag.Int("bench-scale-n", 0, "when set with -bench-query, also run the large-n scale pass (NN and k=10 on the directories vs paged tree, data X-tree, scan and result cache) at n = 10^4 and this size, d = 4, 8, 16")
		benchN      = flag.Int("bench-n", 0, "database size for -bench-query (default 250)")
		benchDims   = flag.String("bench-dims", "", "comma-separated dimensions for -bench-query (default 2,4,8,16)")
	)
	flag.Parse()

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
					row, err := experiments.BenchQueryScale(n, d)
					if err != nil {
						fatalf("bench-query scale pass: %v", err)
					}
					rep.Scale = append(rep.Scale, row)
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

	cfg := experiments.Config{
		N: *n, SmallN: *smallN, Queries: *queries, Seed: *seed,
		CachePages: *cache, Decompose: *decompose,
	}
	var err error
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
