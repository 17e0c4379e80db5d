// Package experiments regenerates every figure of the paper's evaluation
// (§4): the approximation-algorithm comparison (Fig. 4), the
// quality-to-performance analysis (Fig. 5), the search-time, speed-up and
// page/CPU comparisons against the R*-tree and X-tree on uniform data
// (Fig. 7–9), the database-size scaling (Fig. 10), the Fourier-data
// comparison (Fig. 11–12), and the decomposition effect (Fig. 13).
//
// The harness follows the paper's measurement model: every index structure
// runs on its own pager with the same 4-KByte block size and the same cache
// budget; page accesses and CPU time are reported separately (Fig. 9/12) and
// combined into a total search time through a configurable disk model
// (Fig. 7/10/11), because on modern hardware the physical disk no longer
// dominates the way it did on the paper's HP-720.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/vec"
	"repro/internal/xtree"
)

// Config scales the experiments. The defaults are laptop-sized; the paper's
// original sizes (N up to 200,000) are reachable by raising N.
type Config struct {
	// N is the database size for the dimension sweeps. Default 2000.
	N int
	// Dims is the dimension sweep. Default {4, 8, 12, 16}.
	Dims []int
	// SmallN is the database size for the LP-heavy approximation-quality
	// experiments (Fig. 4/5/13, which run the Correct algorithm). Default 400.
	SmallN int
	// Sizes is the database-size sweep of Fig. 10/11. Default
	// {1000, 2000, 4000, 8000}.
	Sizes []int
	// Queries is the number of NN queries per measurement. Default 200.
	Queries int
	// Seed makes every experiment deterministic. Default 1998.
	Seed int64
	// CachePages is the per-structure LRU budget. Default 1024 pages (4 MB),
	// mirroring the paper's "same amount of cache" setup, where the cache
	// was large relative to the database (the HP-720 had 80 MB of RAM):
	// queries run against a warm cache and total time is CPU-dominated,
	// which is the regime in which the paper's Fig. 7-12 were measured.
	CachePages int
	// Disk converts page misses into I/O time for total-time columns.
	Disk pager.DiskModel
	// Decompose is the fragment budget used where decomposition is enabled.
	// Default 10, the paper's recommendation.
	Decompose int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 2000
	}
	if len(c.Dims) == 0 {
		c.Dims = []int{4, 8, 12, 16}
	}
	if c.SmallN <= 0 {
		c.SmallN = 400
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 2000, 4000, 8000}
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Seed == 0 {
		c.Seed = 1998
	}
	if c.CachePages <= 0 {
		c.CachePages = 1024
	}
	if c.Disk == (pager.DiskModel{}) {
		c.Disk = pager.DefaultDiskModel
	}
	if c.Decompose <= 0 {
		c.Decompose = 10
	}
	return c
}

// queryPoints draws uniformly distributed query points in the unit space.
func queryPoints(rng *rand.Rand, n, d int) []vec.Point {
	qs := make([]vec.Point, n)
	for i := range qs {
		q := make(vec.Point, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		qs[i] = q
	}
	return qs
}

// buildAlgorithm picks the constraint-selection algorithm the paper's Fig. 5
// recommends per dimensionality: Sphere up to d=8, NN-Direction above.
func buildAlgorithm(d int) nncell.Algorithm {
	if d <= 8 {
		return nncell.Sphere
	}
	return nncell.NNDirection
}

// measured is one structure's performance on one workload.
type measured struct {
	name      string
	buildTime time.Duration
	queryCPU  time.Duration
	accesses  uint64
	misses    uint64
	totalTime time.Duration
}

// runNNCell builds an NN-cell index and measures the query workload on the
// paged query path, the one whose page accesses the disk model prices. The
// index derives its cell X-tree on first use, so the build asks for it: tree
// construction is build time, and none of its page writes reach the query
// counters.
func runNNCell(pts, qs []vec.Point, cfg Config, opts nncell.Options) (measured, *nncell.Index, error) {
	d := pts[0].Dim()
	pg := pager.New(pager.Config{CachePages: cfg.CachePages})
	start := time.Now()
	ix, err := nncell.Build(pts, vec.UnitCube(d), pg, opts)
	if err != nil {
		return measured{}, nil, err
	}
	ix.Tree()
	build := time.Since(start)
	pg.ResetStats()
	start = time.Now()
	for _, q := range qs {
		if _, err := ix.NearestNeighborPaged(q); err != nil {
			return measured{}, nil, err
		}
	}
	cpu := time.Since(start)
	s := pg.Stats()
	return measured{
		name:      "NN-cell",
		buildTime: build,
		queryCPU:  cpu,
		accesses:  s.Accesses,
		misses:    s.Misses,
		totalTime: cpu + cfg.Disk.IOTime(pager.Stats{Misses: s.Misses}),
	}, ix, nil
}

// runRStar builds an R*-tree over the points and measures NN queries.
func runRStar(pts, qs []vec.Point, cfg Config) measured {
	d := pts[0].Dim()
	pg := pager.New(pager.Config{CachePages: cfg.CachePages})
	start := time.Now()
	tr := xtree.NewRStar(d, pg)
	for i, p := range pts {
		tr.Insert(vec.PointRect(p), int64(i))
	}
	build := time.Since(start)
	pg.ResetStats()
	start = time.Now()
	for _, q := range qs {
		tr.NearestNeighborDF(q)
	}
	cpu := time.Since(start)
	s := pg.Stats()
	return measured{
		name:      "R*-tree",
		buildTime: build,
		queryCPU:  cpu,
		accesses:  s.Accesses,
		misses:    s.Misses,
		totalTime: cpu + cfg.Disk.IOTime(pager.Stats{Misses: s.Misses}),
	}
}

// runXTree builds an X-tree over the points and measures NN queries.
func runXTree(pts, qs []vec.Point, cfg Config) measured {
	d := pts[0].Dim()
	pg := pager.New(pager.Config{CachePages: cfg.CachePages})
	start := time.Now()
	tr := xtree.New(d, pg, xtree.Options{})
	for i, p := range pts {
		tr.Insert(vec.PointRect(p), int64(i))
	}
	build := time.Since(start)
	pg.ResetStats()
	start = time.Now()
	for _, q := range qs {
		tr.NearestNeighbor(q)
	}
	cpu := time.Since(start)
	s := pg.Stats()
	return measured{
		name:      "X-tree",
		buildTime: build,
		queryCPU:  cpu,
		accesses:  s.Accesses,
		misses:    s.Misses,
		totalTime: cpu + cfg.Disk.IOTime(pager.Stats{Misses: s.Misses}),
	}
}

// runScan measures the sequential-scan baseline.
func runScan(pts, qs []vec.Point, cfg Config) measured {
	pg := pager.New(pager.Config{CachePages: cfg.CachePages})
	start := time.Now()
	sc := scan.New(pts, vec.Euclidean{}, pg)
	build := time.Since(start)
	pg.ResetStats()
	start = time.Now()
	for _, q := range qs {
		sc.Nearest(q)
	}
	cpu := time.Since(start)
	s := pg.Stats()
	return measured{
		name:      "seq-scan",
		buildTime: build,
		queryCPU:  cpu,
		accesses:  s.Accesses,
		misses:    s.Misses,
		totalTime: cpu + cfg.Disk.IOTime(pager.Stats{Misses: s.Misses}),
	}
}

// avgCandidates is the paper's query-level overlap measure: the mean number
// of distinct cell approximations containing a query point (1 is ideal).
func avgCandidates(ix *nncell.Index, qs []vec.Point) float64 {
	total := 0
	for _, q := range qs {
		total += len(ix.Candidates(q))
	}
	return float64(total) / float64(len(qs))
}

func ms(d time.Duration) string   { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
func f2(v float64) string         { return fmt.Sprintf("%.2f", v) }
func perQ(d time.Duration, q int) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000/float64(q))
}
