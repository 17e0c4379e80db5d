package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/lp"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/stats"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// funcTarget adapts plain functions to a target: fn is timed, after (may be
// nil) runs untimed between calls, e.g. to stage the next call's input.
type funcTarget struct {
	fn    func(client, i int)
	after func(client, i int)
}

func (f funcTarget) do(client, i int) error { f.fn(client, i); return nil }
func (f funcTarget) check(client, i int) bool {
	if f.after != nil {
		f.after(client, i)
	}
	return true
}

// prober runs layer probes: direct timed calls into one layer's public
// functions on the workload's data and pool, closed loop, best window.
type prober struct {
	windows int
	winLen  time.Duration
}

// p50 times fn(i) for i = 0, 1, 2, … on one goroutine and returns the
// best-window median in ns.
func (pr prober) p50(fn func(i int)) (estimate, error) {
	return pr.run(1, 1, funcTarget{fn: func(_, i int) { fn(i) }})
}

// batchP50 is p50 for calls too short to time one by one (tens of ns, the
// cost of reading the clock): each sample is `batch` calls, and the result is
// per call.
func (pr prober) batchP50(clients, batch int, fn func(client, i int)) (estimate, error) {
	return pr.run(clients, batch, funcTarget{fn: func(c, i int) {
		for k := 0; k < batch; k++ {
			fn(c, i*batch+k)
		}
	}})
}

func (pr prober) run(clients, batch int, tg target) (estimate, error) {
	var tl tally
	e, err := pr.target(clients, tg, &tl)
	return e.scaled(1 / float64(batch)), err
}

// target is the best-window median over a workload's own target, with the
// requests tallied: the workload's latency as the probes see it.
func (pr prober) target(clients int, tg target, tl *tally) (estimate, error) {
	dur := time.Duration(pr.windows) * pr.winLen
	samples, t := closedLoop(time.Now(), dur, clients, 1<<16, tg)
	tl.add(t)
	e, ok := estimateWindows(splitWindows(samples, pr.windows, pr.winLen), statP50, pr.winLen)
	if !ok {
		return e, fmt.Errorf("probe: no window had enough samples for a median")
	}
	return e, nil
}

// dataTree bulk-loads the data points themselves, as degenerate rectangles,
// into an X-tree: the paper's competitor, NN search on the data index.
func dataTree(points []vec.Point) *xtree.Tree {
	items := make([]xtree.Entry, len(points))
	for i, p := range points {
		items[i] = xtree.Entry{Rect: vec.PointRect(p), Data: int64(i)}
	}
	return xtree.BulkLoad(points[0].Dim(), pager.New(pager.Config{CachePages: 64}), xtree.Options{}, items)
}

// knnPointer is what the LP probe needs to pick realistic constraint points.
type knnPointer interface {
	KNearest(q vec.Point, k int) ([]nncell.Neighbor, error)
	Point(id int) (vec.Point, bool)
}

// lpProbe times lp.Solver on the kind of problem the build and every write
// solve: the bisector half-spaces between a point and its 4d nearest data
// points inside the unit cube, Load once and then the 2d extent objectives.
// It reports the time and pivots per Solve.
func lpProbe(pr prober, ix knnPointer, pool []vec.Point, d int) (solve estimate, pivotsPerSolve float64, err error) {
	const problems = 128
	cube := vec.UnitCube(d)
	probs := make([]lp.Problem, 0, problems)
	for _, p := range pool[:min(problems, len(pool))] {
		nbs, err := ix.KNearest(p, 4*d)
		if err != nil {
			return solve, 0, fmt.Errorf("lp probe: %w", err)
		}
		pn := p.Norm2()
		var cons []lp.Constraint
		for _, nb := range nbs {
			q, ok := ix.Point(nb.ID)
			if !ok || nb.Dist2 == 0 {
				continue
			}
			a := make([]float64, d)
			for j := range a {
				a[j] = 2 * (q[j] - p[j])
			}
			cons = append(cons, lp.Constraint{A: a, B: q.Norm2() - pn})
		}
		probs = append(probs, lp.Problem{NumVars: d, Cons: cons, Lo: cube.Lo, Hi: cube.Hi})
	}
	var solver lp.Solver
	c := make([]float64, d)
	var solves, pivots int
	var failed error
	solve, err = pr.p50(func(i int) {
		if err := solver.Load(&probs[i%len(probs)]); err != nil {
			failed = err
			return
		}
		for j := 0; j < d; j++ {
			for _, sign := range [2]float64{1, -1} {
				c[j] = sign
				res, err := solver.Solve(c)
				if err != nil {
					failed = err
					return
				}
				solves++
				pivots += res.Iterations
			}
			c[j] = 0
		}
	})
	if err == nil && failed != nil {
		err = fmt.Errorf("lp probe: %w", failed)
	}
	if err != nil || solves == 0 {
		return solve, 0, err
	}
	return solve.scaled(1 / float64(2*d)), float64(pivots) / float64(solves), nil
}

// walProbe times Append and Sync on a fresh log in dir with the workload's
// fsync policy and insert records of dimension d.
func walProbe(pr prober, dir string, d int) (appendNS, syncNS estimate, err error) {
	l, err := wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Interval: 100 * time.Millisecond})
	if err != nil {
		return appendNS, syncNS, err
	}
	defer os.RemoveAll(dir)
	defer l.Close()
	p := make([]float64, d)
	var failed error
	next := int64(0)
	app := func() {
		if err := l.Append(wal.Record{Kind: wal.KindInsert, ID: next, Point: p}); err != nil {
			failed = err
		}
		next++
	}
	if appendNS, err = pr.p50(func(int) { app() }); err != nil {
		return appendNS, syncNS, err
	}
	// Each timed Sync has one fresh record to make durable, appended untimed.
	app()
	syncNS, err = pr.run(1, 1, funcTarget{
		fn: func(int, int) {
			if err := l.Sync(); err != nil {
				failed = err
			}
		},
		after: func(int, int) { app() },
	})
	if err == nil && failed != nil {
		err = fmt.Errorf("wal probe: %w", failed)
	}
	return appendNS, syncNS, err
}

// cacheProbe times the result cache's own operations on a scratch cache
// filled to capacity with the pool's answers: a lookup that misses, a fill,
// and a commit-time invalidation sweep.
func cacheProbe(pr prober, capacity int, pool, fresh []vec.Point, answers []nncell.Neighbor) (getMiss, put, invalidate estimate, err error) {
	c := rescache.New(capacity)
	for i := 0; i < capacity; i++ {
		c.Put(pool[i%len(pool)], answers[i%len(pool)], c.Epoch())
	}
	if getMiss, err = pr.batchP50(1, 256, func(_, i int) { c.Get(fresh[i%len(fresh)]) }); err != nil {
		return
	}
	// An inserted point far from every cached query drops nothing, so each
	// call pays the full sweep and the cache stays full.
	added := []vec.Point{fresh[0]}
	cells := []int{-1}
	if invalidate, err = pr.p50(func(i int) { c.Invalidate(cells, added) }); err != nil {
		return
	}
	// Fresh keys, so every Put inserts and, the cache being full, evicts.
	put, err = pr.batchP50(1, 256, func(_, i int) {
		c.Put(fresh[i%len(fresh)], answers[i%len(answers)], c.Epoch())
	})
	return
}

// observeProbe times stats.Histogram.Observe from `clients` goroutines at
// once: the mutex every served request crosses.
func observeProbe(pr prober, clients int) (estimate, error) {
	var h stats.Histogram
	return pr.batchP50(clients, 256, func(_, i int) { h.Observe(time.Duration(i&0xffff) * time.Microsecond) })
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapMB forces a collection and returns the live heap in MB (10^6 bytes).
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
