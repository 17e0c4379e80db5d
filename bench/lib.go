package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/rescache"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// pagerCfg is the page-cache budget every index of the benchmark gets, the
// serve command's default.
var pagerCfg = pager.Config{CachePages: 64}

// slot is one client's last reply, padded so two clients' slots never share
// a cache line.
type slot struct {
	nb  nncell.Neighbor
	knn []nncell.Neighbor
	_   [64]byte
}

// nnSearcher is the read surface of an index or of a cache front.
type nnSearcher interface {
	NearestNeighbor(q vec.Point) (nncell.Neighbor, error)
}

// readTarget sends single-NN library calls over a pool. seq, when set, picks
// the pool entry of request i (a Zipf draw); otherwise requests walk the pool.
// With a table the reply is checked against it; while the point set is
// changing (table nil) the reply must at least be consistent with the mirror.
type readTarget struct {
	nn    nnSearcher
	pool  []vec.Point
	seq   []int32
	table *oracle
	mir   *mirror
	slots []slot
}

func (t *readTarget) queryPoint(i int) vec.Point { return t.pool[t.query(i)] }

func (t *readTarget) query(i int) int {
	if t.seq != nil {
		return int(t.seq[i%len(t.seq)])
	}
	return i % len(t.pool)
}

func (t *readTarget) do(c, i int) (err error) {
	t.slots[c].nb, err = t.nn.NearestNeighbor(t.pool[t.query(i)])
	return err
}

func (t *readTarget) check(c, i int) bool {
	if t.table != nil {
		return t.table.checkNN(t.query(i), t.slots[c].nb)
	}
	return t.mir.consistent(t.pool[t.query(i)], t.slots[c].nb)
}

// knnTarget sends k=10 library calls over a pool. While the point set moves
// no table can say what the neighbours are (table nil): then the reply must
// hold k neighbours in ascending distance order, and what they are is left to
// the quiesced check of the nearest neighbour.
type knnTarget struct {
	ix interface {
		KNearest(q vec.Point, k int) ([]nncell.Neighbor, error)
	}
	pool  []vec.Point
	table *oracle
	slots []slot
}

func (t *knnTarget) do(c, i int) (err error) {
	t.slots[c].knn, err = t.ix.KNearest(t.pool[i%len(t.pool)], oracleK)
	return err
}

func (t *knnTarget) check(c, i int) bool {
	if t.table == nil {
		return ascendingK(t.slots[c].knn)
	}
	return t.table.checkKNN(i%len(t.pool), t.slots[c].knn)
}

// apportion splits total slots among kinds in proportion to weights, at
// least one each.
func apportion(total int, weights []int) []int {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	for i, w := range weights {
		counts[i] = max(1, int(math.Round(float64(total)*float64(w)/float64(sum))))
	}
	return counts
}

// closedSlot runs one closed-loop slot starting at start.
func closedSlot(start time.Time, slotLen time.Duration, clients, ratePerClient int, tg target, tl *tally) []sample {
	samples, t := closedLoop(start, slotLen, clients, int(slotLen.Seconds()*float64(ratePerClient)), tg)
	tl.add(t)
	return samples
}

// estimateInto stores the best window of an end-to-end statistic; a run
// without one has failed.
func estimateInto(rep *report, name string, sr *series, st stat, winLen time.Duration, scale float64) error {
	e, ok := sr.estimate(st, winLen)
	if !ok {
		return fmt.Errorf("%s: no window of %v has enough samples (a percentile needs %d beyond it)", name, winLen, tailMargin)
	}
	rep.setEst(name, e, scale)
	return nil
}

// estimateLayer stores the best window of a per-layer statistic; when no
// window qualifies the metric stays unmeasured and the report says why.
func estimateLayer(rep *report, name string, sr *series, st stat, winLen time.Duration, scale float64) {
	if err := estimateInto(rep, name, sr, st, winLen, scale); err != nil {
		rep.notef("%v", err)
	}
}

// timedSetup runs setup and reports how long it took as setup_s: from data
// generation to the moment the first timed window could start. It runs once
// per run: wire-read-d8 alone needs some 40 s for it (three nodes each replay
// a 10^4-point d=8 snapshot), and the 92 runs of an acceptance check have
// 3 420 s between them.
func timedSetup[W any](rep *report, setup func() (W, error)) (W, error) {
	t0 := time.Now()
	w, err := setup()
	rep.set("setup_s", time.Since(t0).Seconds(), 0)
	return w, err
}

// ---------------------------------------------------------------------------
// lib-nn-d8

type nnSizes struct {
	n, d, pool int
	slot       time.Duration // a slot of the timed section: long enough for a p99 (>= 1 000 NN calls)
}

func libNNSizes(smoke bool) nnSizes {
	if smoke {
		return nnSizes{n: 500, d: 8, pool: 512, slot: 200 * time.Millisecond}
	}
	return nnSizes{n: 10000, d: 8, pool: 8192, slot: 500 * time.Millisecond}
}

// nnWorld is the d=8 single-index data set with its pool and oracle table;
// wire-read-d8 serves the same world from a cluster.
type nnWorld struct {
	pts, pool  []vec.Point
	ix         *nncell.Index
	table      *oracle
	buildS     float64
	buildStats nncell.Stats
}

func setupNN(p params, sz nnSizes) (*nnWorld, error) {
	rng := rand.New(rand.NewSource(p.seed))
	w := &nnWorld{
		pts:  dataset.Uniform(rng, sz.n, sz.d),
		pool: dataset.Uniform(rng, sz.pool, sz.d),
	}
	t0 := time.Now()
	var err error
	if w.ix, err = nncell.Build(w.pts, vec.UnitCube(sz.d), pager.New(pagerCfg), nncell.Options{}); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	w.buildS = time.Since(t0).Seconds()
	w.buildStats = w.ix.Stats()
	if w.table, err = buildOracle(w.pts, w.pool, p.nproc); err != nil {
		return nil, err
	}
	return w, nil
}

// buildMetrics records what the index build cost.
func buildMetrics(rep *report, seconds float64, st nncell.Stats) {
	rep.set("nncell.build_s", seconds, 0)
	rep.set("nncell.build_lp_solves", float64(st.LPSolves), 0)
	rep.set("nncell.build_lp_pivots", float64(st.LPPivots), 0)
	rep.set("nncell.fragments", float64(st.Fragments), 0)
}

func runLibNN(p params, rep *report, tl *tally) error {
	sz := libNNSizes(p.smoke)
	w, err := timedSetup(rep, func() (*nnWorld, error) { return setupNN(p, sz) })
	if err != nil {
		return err
	}
	rep.set("mem_mb", heapMB(), 0)

	nn := &readTarget{nn: w.ix, pool: w.pool, table: w.table, slots: make([]slot, p.nproc)}
	knn := &knnTarget{ix: w.ix, pool: w.pool, table: w.table, slots: make([]slot, p.nproc)}
	if p.trace {
		return traceLibNN(p, rep, tl, w, nn)
	}

	// Two kinds of load take turns slot by slot, one NN caller and one k=10
	// caller, in the proportion of the issue's window counts.
	nnS, knnS := series{slotLen: sz.slot}, series{slotLen: sz.slot}
	counts := apportion(int(math.Round(p.seconds/sz.slot.Seconds())), []int{12, 8})
	for _, k := range interleave(counts) {
		if k == 0 {
			nnS.add(closedSlot(time.Now(), sz.slot, 1, 1<<16, nn, tl))
		} else {
			knnS.add(closedSlot(time.Now(), sz.slot, 1, 1<<16, knn, tl))
		}
	}
	// A median is steady over a fifth of a slot (some 500 calls).
	if err := estimateInto(rep, "nn_p50_us", &nnS, statP50, sz.slot/5, 1e-3); err != nil {
		return err
	}
	return estimateInto(rep, "knn10_p50_us", &knnS, statP50, sz.slot/5, 1e-3)
}

// traceLibNN is the per-layer pass of lib-nn-d8: counts over a fixed
// sequential pass, probes of each layer on the same pool, the baselines, and
// the traced run.
func traceLibNN(p params, rep *report, tl *tally, w *nnWorld, nn *readTarget) error {
	sz := libNNSizes(p.smoke)
	pr := prober{windows: p.probeWindows(), winLen: sz.slot}
	buildMetrics(rep, w.buildS, w.buildStats)
	tree := w.ix.Tree()
	rep.set("xtree.height", float64(tree.Height()), 0)
	rep.set("xtree.supernodes", float64(tree.Supernodes()), 0)

	// nn-1c and nn-pc taking turns: the tail of one caller, the throughput of
	// nproc callers, and the median the derived metrics below start from.
	nnS, pcS := series{slotLen: sz.slot}, series{slotLen: sz.slot}
	for i := 0; i < 2*pr.windows; i++ {
		nnS.add(closedSlot(time.Now(), sz.slot, 1, 1<<16, nn, tl))
		pcS.add(closedSlot(time.Now(), sz.slot, p.nproc, 1<<16, nn, tl))
	}
	estimateLayer(rep, "nn_p99_us", &nnS, statP99, sz.slot, 1e-3)
	estimateLayer(rep, "nn_qps", &pcS, statRate, sz.slot/5, 1)
	nnE, ok := nnS.estimate(statP50, sz.slot/5)
	if !ok {
		return fmt.Errorf("nn-1c: no window has enough samples")
	}

	// Counts: one client, a fixed number of requests, so they repeat exactly
	// for a seed.
	st0, pg0, m0 := w.ix.Stats(), w.ix.PagerStats(), mallocs()
	untraced := fixedPass(0, p.traceOps(), nn, tl, nil)
	st1, pg1, m1 := w.ix.Stats(), w.ix.PagerStats(), mallocs()
	q := float64(st1.Queries - st0.Queries)
	rep.set("nncell.candidates_per_query", float64(st1.Candidates-st0.Candidates)/q, int(q))
	rep.set("nncell.allocs_per_nn", float64(m1-m0)/q, int(q))
	rep.set("pager.accesses_per_query", float64(pg1.Accesses-pg0.Accesses)/q, int(q))
	rep.set("pager.hit_ratio", ratio(pg1.Hits-pg0.Hits, pg1.Accesses-pg0.Accesses), int(pg1.Accesses-pg0.Accesses))

	// Probes.
	var cand []int
	candE, err := pr.p50(func(i int) { cand = w.ix.CandidatesAppend(cand[:0], w.pool[i%len(w.pool)]) })
	if err != nil {
		return err
	}
	rep.setEst("nncell.candidates_p50_us", candE, 1e-3)
	rep.set("nncell.refine_self_us", (nnE.best-candE.best)*1e-3, 0)

	var qc xtree.QueryCtx
	var hits []int64
	if err := probeInto(rep, "xtree.cell_point_query_p50_us", 1e-3, pr, func(i int) {
		hits = tree.PointQueryData(&qc, w.pool[i%len(w.pool)], hits[:0])
	}); err != nil {
		return err
	}
	if err := baselines(rep, pr, w.pts, w.pool, nnE); err != nil {
		return err
	}
	solveE, pivots, err := lpProbe(pr, w.ix, w.pool, sz.d)
	if err != nil {
		return err
	}
	rep.setEst("lp.solve_p50_us", solveE, 1e-3)
	rep.set("lp.pivots_per_solve", pivots, 0)

	// Traced run: the same fixed pass with spans on.
	tr := newTracer()
	tr.enabled.Store(true)
	traced := fixedPass(0, p.traceOps(), &readTarget{
		nn: tracedIndex{index: w.ix, tr: tr}, pool: w.pool, table: w.table, slots: make([]slot, 1),
	}, tl, &passTrace{tr: tr, root: "client.op", candidates: w.ix})
	if err := traceMetrics(p, rep, tr, untraced, traced); err != nil {
		return err
	}
	rep.set("nncell.fallbacks", float64(w.ix.Stats().Fallbacks), 0)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeInto runs a p50 probe and stores it under name.
func probeInto(rep *report, name string, scale float64, pr prober, fn func(i int)) error {
	e, err := pr.p50(fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rep.setEst(name, e, scale)
	return nil
}

// baselines times the two simplest alternatives on the same points and pool:
// the sequential scan and NN search on an X-tree of the data points.
func baselines(rep *report, pr prober, pts, pool []vec.Point, nnE estimate) error {
	sc := newScanner(pts)
	scanE, err := pr.p50(func(i int) { sc.Nearest(pool[i%len(pool)]) })
	if err != nil {
		return err
	}
	rep.setEst("scan.nn_p50_us", scanE, 1e-3)
	rep.set("scan.speedup", scanE.best/nnE.best, 0)
	dt := dataTree(pts)
	var qc xtree.QueryCtx
	return probeInto(rep, "xtree.data_nn_p50_us", 1e-3, pr, func(i int) {
		dt.NearestNeighborCtx(&qc, pool[i%len(pool)])
	})
}

// candidater is the tree-probe half of an NN query, issued beside each traced
// read to split tree time from refinement time.
type candidater interface {
	CandidatesAppend(dst []int, q vec.Point) []int
}

// passTrace is what a fixed pass needs to record spans.
type passTrace struct {
	tr         *tracer
	root       string // the client's span: client.op for a library call, client.request over HTTP
	candidates candidater
	front      bool // reads go through a cache front: wrap them in front.nn
	buf        []int
}

// poolTarget is a read target that can say which point request i asks about.
type poolTarget interface {
	target
	queryPoint(i int) vec.Point
}

// fixedPass sends requests from..from+n-1 from one sequential client and returns their
// latencies (ns, in request order). With pt set, each request is a root span
// followed by a probe.candidates sibling.
func fixedPass(from, n int, tg poolTarget, tl *tally, pt *passTrace) []int64 {
	out := make([]int64, 0, n)
	var t tally
	for i := from; i < from+n; i++ {
		h, fh := -1, -1
		if pt != nil {
			pt.tr.req.Add(1)
			h = pt.tr.begin(pt.root)
			if pt.front {
				fh = pt.tr.begin("front.nn")
			}
		}
		t0 := time.Now()
		err := tg.do(0, i)
		lat := time.Since(t0)
		if pt != nil {
			pt.tr.end(fh)
			pt.tr.end(h)
		}
		t.attempted++
		switch {
		case err != nil:
			t.fail(err)
		case !tg.check(0, i):
			t.wrong++
		default:
			out = append(out, int64(lat))
		}
		if pt != nil {
			q := tg.queryPoint(i)
			pt.tr.probe("probe.candidates", func() int64 {
				pt.buf = pt.candidates.CandidatesAppend(pt.buf[:0], q)
				return int64(len(pt.buf))
			}, "candidates")
		}
	}
	tl.add(t)
	return out
}

// traceMetrics closes the traced pass: writes the span file, reports each
// span name's self-time median, and the cost of tracing as the ratio of the
// traced to the untraced client latency over the same fixed pass.
func traceMetrics(p params, rep *report, tr *tracer, untraced, traced []int64) error {
	tr.enabled.Store(false)
	spans, self := tr.finish()
	path := filepath.Join(p.outDir, "trace-"+p.workload+".jsonl")
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	if err := writeTrace(path, spans); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.notef("%d spans written to %s", len(spans), path)
	for name, st := range selfTimes(spans, self) {
		v, _ := percentile(st, 0.5)
		rep.set("trace."+name+".self_p50_us", float64(v)*1e-3, len(st))
	}
	slices.Sort(untraced)
	slices.Sort(traced)
	u, _ := percentile(untraced, 0.5)
	t, _ := percentile(traced, 0.5)
	if u > 0 {
		rep.set("driver.trace_overhead_ratio", float64(t)/float64(u), len(traced))
	}
	return nil
}

// ---------------------------------------------------------------------------
// lib-mixed-d4

type mixedSizes struct {
	n, d, pool, shards int
	cache              int
	slot               time.Duration // a window of the read-only phases
	writeRate          float64       // write requests per second
}

// writeOps is the writer's fixed op list; one pass over it is one period.
var libWriteOps = []writeKind{wInsertBatch, wInsert, wInsert, wInsert, wInsertBatch, wInsert, wInsert, wDelete}

const batchSize = 8

func (sz mixedSizes) period(ops []writeKind) time.Duration {
	return time.Duration(float64(len(ops)) / sz.writeRate * float64(time.Second))
}

func libMixedSizes(smoke bool) mixedSizes {
	if smoke {
		return mixedSizes{n: 500, d: 4, pool: 256, shards: 4, cache: 4096, slot: 200 * time.Millisecond, writeRate: 40}
	}
	return mixedSizes{n: 20000, d: 4, pool: 4096, shards: 4, cache: 4096, slot: 500 * time.Millisecond, writeRate: 4}
}

// mixedWorld is a d=4 grid-sharded index with a near-data query pool.
type mixedWorld struct {
	pts, pool  []vec.Point
	sx         *shard.Sharded
	table      *oracle // over the build points: valid until the first write
	mir        *mirror
	walDir     string
	buildS     float64
	buildStats nncell.Stats
}

func (w *mixedWorld) close() {
	if w.sx != nil {
		w.sx.Close()
	}
	if w.walDir != "" {
		os.RemoveAll(w.walDir)
	}
}

// nearDataPool draws queries next to data points: a data point plus N(0,
// 0.01) noise per coordinate, clamped to the unit cube.
func nearDataPool(rng *rand.Rand, pts []vec.Point, n int) []vec.Point {
	cube := vec.UnitCube(pts[0].Dim())
	pool := make([]vec.Point, n)
	for i := range pool {
		q := pts[rng.Intn(len(pts))].Clone()
		for j := range q {
			q[j] += rng.NormFloat64() * 0.01
		}
		cube.ClampInPlace(q)
		pool[i] = q
	}
	return pool
}

// buildSharded builds the d=4 grid-routed index both mixed workloads use.
func buildSharded(pts []vec.Point, d, shards int, lazy bool) (*shard.Sharded, error) {
	return shard.Build(pts, vec.UnitCube(d), shard.Options{
		Shards: shards,
		Route:  shard.RouteGrid,
		Pager:  pagerCfg,
		Index:  nncell.Options{Algorithm: nncell.NNDirection, LazyRepair: lazy},
	})
}

func setupMixed(p params, sz mixedSizes, lazy, withWAL bool) (*mixedWorld, error) {
	rng := rand.New(rand.NewSource(p.seed))
	w := &mixedWorld{pts: dataset.Uniform(rng, sz.n, sz.d)}
	w.pool = nearDataPool(rng, w.pts, sz.pool)
	t0 := time.Now()
	var err error
	if w.sx, err = buildSharded(w.pts, sz.d, sz.shards, lazy); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	w.buildS = time.Since(t0).Seconds()
	w.buildStats = w.sx.Stats()
	if withWAL {
		if w.walDir, err = os.MkdirTemp(p.tmpDir, "wal-"); err != nil {
			return nil, err
		}
		if err := w.sx.OpenWALs(w.walDir, wal.Options{Policy: wal.SyncInterval, Interval: 100 * time.Millisecond}); err != nil {
			return nil, err
		}
	}
	if w.table, err = buildOracle(w.pts, w.pool, p.nproc); err != nil {
		return nil, err
	}
	w.table.useIDsOf(w.pts, w.sx)
	w.mir = mirrorOf(w.sx)
	return w, nil
}

// mirrorOf starts a mirror from the points sx holds, under the ids it gave
// them.
func mirrorOf(sx *shard.Sharded) *mirror {
	ids := sx.IDs()
	pts := make([]vec.Point, len(ids))
	for i, id := range ids {
		pts[i], _ = sx.Point(id)
	}
	return newMirror(ids, pts)
}

// zipfSeq draws a Zipf(s) sequence of pool indices: a hot set the cache can
// hold, with a long tail that misses.
func zipfSeq(rng *rand.Rand, s float64, pool, n int) []int32 {
	z := rand.NewZipf(rng, s, 1, uint64(pool-1))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// writeKind is one kind of write request.
type writeKind int

const (
	wInsert writeKind = iota
	wInsertBatch
	wDelete
	numWriteKinds
)

// libWriter applies the fixed op list to an index through its library calls
// and mirrors every acknowledged write.
type libWriter struct {
	ix     rescache.Inner
	ops    []writeKind
	points [][]vec.Point // the points of write request i, drawn from the seed up front
	mir    *mirror
	svc    [numWriteKinds][]int64 // service time of each call by kind, ns
	tr     *tracer
}

// writePoints draws the points of n write requests.
func writePoints(rng *rand.Rand, ops []writeKind, n, d int) [][]vec.Point {
	out := make([][]vec.Point, n)
	for i := range out {
		switch ops[i%len(ops)] {
		case wInsert:
			out[i] = dataset.Uniform(rng, 1, d)
		case wInsertBatch:
			out[i] = dataset.Uniform(rng, batchSize, d)
		}
	}
	return out
}

func (w *libWriter) do(_, i int) error {
	kind := w.ops[i%len(w.ops)]
	h := -1
	if w.tr != nil {
		w.tr.req.Add(1)
		h = w.tr.begin("client.op")
	}
	t0 := time.Now()
	var err error
	w.mir.sending(w.points[i])
	switch kind {
	case wInsert:
		var id int
		if id, err = w.ix.Insert(w.points[i][0]); err == nil {
			w.mir.inserted(id, w.points[i][0])
		}
	case wInsertBatch:
		var ids []int
		if ids, err = w.ix.InsertBatch(w.points[i]); err == nil {
			for k, id := range ids {
				w.mir.inserted(id, w.points[i][k])
			}
		}
	case wDelete:
		if id, ok := w.mir.oldest(); ok {
			if err = w.ix.Delete(id); err == nil {
				w.mir.deleted(id)
			}
		}
	}
	w.svc[kind] = append(w.svc[kind], int64(time.Since(t0)))
	if w.tr != nil {
		w.tr.end(h)
	}
	return err
}

func (w *libWriter) check(int, int) bool { return true }

// pointsWritten is the number of points n write requests insert or delete.
func pointsWritten(ops []writeKind, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if ops[i%len(ops)] == wInsertBatch {
			total += batchSize
		} else {
			total++
		}
	}
	return total
}

func runLibMixed(p params, rep *report, tl *tally) error {
	sz := libMixedSizes(p.smoke)
	w, err := timedSetup(rep, func() (*mixedWorld, error) { return setupMixed(p, sz, true, true) })
	if err != nil {
		return err
	}
	defer w.close()
	rep.set("mem_mb", heapMB(), 0)

	// Two thirds of the timed seconds go to the quiet phase, one third to churn.
	period := sz.period(libWriteOps)
	periods := max(1, int(math.Round(p.seconds/3/period.Seconds())))
	pairs := max(1, int(math.Round(p.seconds*2/3/(2*sz.slot).Seconds())))
	if p.trace {
		periods, pairs = p.probeWindows(), p.probeWindows()
	}
	var inner index = w.sx
	tr := newTracer()
	if p.trace {
		inner = tracedIndex{index: w.sx, tr: tr}
	}
	front := rescache.NewFront(inner, sz.cache)
	rng := rand.New(rand.NewSource(p.seed + 1))
	reader := &readTarget{
		nn: front, pool: w.pool, table: w.table, mir: w.mir, slots: make([]slot, 1),
		seq: zipfSeq(rng, 1.2, len(w.pool), 1<<20),
	}
	traceWrites := 4 * len(libWriteOps)
	nWrites := periods * len(libWriteOps)
	writer := &libWriter{
		ix: front, ops: libWriteOps, mir: w.mir,
		points: writePoints(rng, libWriteOps, nWrites+2*traceWrites, sz.d),
	}

	// quiet: the reader alone, NN through the front and k=10 on the index
	// (k > 1 is never cached) taking turns. The end-to-end read metrics come
	// from here: with the writer running, the reader's tail is set by when
	// the scheduler and the repair pool let it run, and on two cores it
	// differs by 2x between identical runs (README.md).
	nnQ, knnQ := series{slotLen: sz.slot}, series{slotLen: sz.slot}
	knn := &knnTarget{ix: w.sx, pool: w.pool, table: w.table, slots: make([]slot, 1)}
	for i := 0; i < pairs; i++ {
		nnQ.add(closedSlot(time.Now(), sz.slot, 1, 1<<22, reader, tl))
		knnQ.add(closedSlot(time.Now(), sz.slot, 1, 1<<17, knn, tl))
	}
	if !p.trace {
		for _, m := range []struct {
			name   string
			sr     *series
			st     stat
			winLen time.Duration
			scale  float64
		}{
			{"nn_p50_us", &nnQ, statP50, sz.slot / 5, 1e-3}, {"knn10_p50_us", &knnQ, statP50, sz.slot / 5, 1e-3},
		} {
			if err := estimateInto(rep, m.name, m.sr, m.st, m.winLen, m.scale); err != nil {
				return err
			}
		}
	} else {
		estimateLayer(rep, "rescache.front_hit_p50_ns", &nnQ, statP50, sz.slot/5, 1)
		estimateLayer(rep, "nn_p99_us", &nnQ, statP99, sz.slot/5, 1e-3)
		estimateLayer(rep, "nn_qps", &nnQ, statRate, sz.slot/5, 1)
	}

	// churn: the reader beside the writer, one write period per window. Every
	// answer is checked; the timings are per-layer metrics.
	reader.table = nil // the point set moves from here on
	cs0, st0, ws0, rs0 := front.Cache().Stats(), w.sx.Stats(), w.sx.WALStats(), w.sx.RouteStats()
	start := time.Now()
	writes := make(chan openResult, 1)
	go func() {
		writes <- openLoop(start, time.Duration(periods)*period, sz.writeRate, 1, maxOutstanding(sz.writeRate), writer)
	}()
	// In every period the reader sends NN requests for the first three
	// quarters and k=10 requests for the last, so every window of a kind sees
	// the same stretch of the write list.
	nnC := series{slotLen: period * 3 / 4}
	mk := &knnTarget{ix: w.sx, pool: w.pool, slots: make([]slot, 1)}
	for j := 0; j < periods; j++ {
		at := start.Add(time.Duration(j) * period)
		nnC.add(closedSlot(at, nnC.slotLen, 1, 1<<21, reader, tl))
		closedSlot(at.Add(nnC.slotLen), period-nnC.slotLen, 1, 1<<17, mk, tl) // checked, not timed
	}
	wr := <-writes
	tl.add(wr.tally)

	t0 := time.Now()
	w.sx.RepairWait()
	drainS := time.Since(t0).Seconds()
	cs1, st1, ws1, rs1 := front.Cache().Stats(), w.sx.Stats(), w.sx.WALStats(), w.sx.RouteStats()

	if p.trace {
		for _, m := range []struct {
			name  string
			st    stat
			scale float64
		}{{"churn.nn_p50_us", statP50, 1e-3}, {"churn.nn_p99_us", statP99, 1e-3}, {"churn.nn_qps", statRate, 1}} {
			estimateLayer(rep, m.name, &nnC, m.st, nnC.slotLen, m.scale)
		}
		estimateLayer(rep, "write_mean_ms", periodSeries(wr.samples, periods, period), statMean, period, 1e-6)
		ackMetrics(rep, &writer.svc)
		nw := float64(wr.tally.attempted)
		rep.set("nncell.lp_solves_per_write", float64(st1.LPSolves-st0.LPSolves)/nw, int(nw))
		rep.set("nncell.lp_pivots_per_write", float64(st1.LPPivots-st0.LPPivots)/nw, int(nw))
		rep.set("nncell.repairs", float64(st1.Repairs-st0.Repairs), 0)
		rep.set("nncell.repair_drain_s", drainS, 0)
		// Sharded.Stats() drops the high-water field, so take it per shard.
		hw := uint64(0)
		for i := 0; i < w.sx.NumShards(); i++ {
			hw = max(hw, w.sx.Shard(i).Stats().StaleCellsHighWater)
		}
		rep.set("nncell.stale_cells_highwater", float64(hw), 0)
		lookups := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses)
		rep.set("rescache.hit_ratio", ratio(cs1.Hits-cs0.Hits, lookups), int(lookups))
		rep.set("rescache.invalidated_entries_per_write", float64(cs1.InvalidatedEntries-cs0.InvalidatedEntries)/nw, int(nw))
		rep.set("rescache.fill_aborts", float64(cs1.FillAborts-cs0.FillAborts), 0)
		rep.set("rescache.evictions", float64(cs1.Evictions-cs0.Evictions), 0)
		rep.set("shard.visited_per_query", ratio(rs1.Visited-rs0.Visited, rs1.Queries-rs0.Queries), int(rs1.Queries-rs0.Queries))
		rep.set("wal.bytes_per_point", float64(ws1.AppendedBytes-ws0.AppendedBytes)/float64(pointsWritten(libWriteOps, wr.tally.attempted)), 0)
		rep.set("wal.syncs_per_s", float64(ws1.Syncs-ws0.Syncs)/(time.Duration(periods)*period).Seconds(), 0)
		// The writer shares two cores with a reader that never sleeps, so its
		// lateness is the Go scheduler's, reported but not held against the run.
		lagMetrics(rep, false, wr)
		if err := traceLibMixed(p, rep, tl, w, sz, tr, reader, writer, nWrites, traceWrites); err != nil {
			return err
		}
	}

	// Quiesced check: every pool query through the front (surviving cache
	// entries included) and through the bare index, against a scan over the
	// mirrored point set.
	w.sx.RepairWait()
	checked, wrong, detail := finalCheck(w.mir, w.pool, map[string]batchNN{
		"front": func(qs []vec.Point) ([]nncell.Neighbor, error) { return front.NearestNeighborBatch(qs, p.nproc) },
		"index": func(qs []vec.Point) ([]nncell.Neighbor, error) { return w.sx.NearestNeighborBatch(qs, p.nproc) },
	})
	tl.attempted += checked
	tl.wrong += wrong
	for _, d := range detail {
		rep.notef("final check: %s", d)
	}
	if err := w.sx.CheckInvariants(); err != nil {
		tl.wrong++
		rep.notef("CheckInvariants: %v", err)
	}
	rep.set("nncell.fallbacks", float64(w.sx.Stats().Fallbacks), 0)
	return nil
}

// ascendingK reports whether nbs is oracleK neighbours in ascending distance
// order.
func ascendingK(nbs []nncell.Neighbor) bool {
	if len(nbs) != oracleK {
		return false
	}
	for j := 1; j < len(nbs); j++ {
		if nbs[j].Dist2 < nbs[j-1].Dist2 {
			return false
		}
	}
	return true
}

// ackMetrics reports the writer's call times by kind over the whole phase.
func ackMetrics(rep *report, svc *[numWriteKinds][]int64) {
	for k := range svc {
		slices.Sort(svc[k])
	}
	if n := len(svc[wInsert]); n > 0 {
		v50, _ := percentile(svc[wInsert], 0.5)
		v90, _ := percentile(svc[wInsert], 0.9)
		rep.set("nncell.insert_ack_p50_ms", float64(v50)*1e-6, n)
		rep.set("nncell.insert_ack_p90_ms", float64(v90)*1e-6, n)
	}
	if n := len(svc[wInsertBatch]); n > 0 {
		var sum int64
		for _, v := range svc[wInsertBatch] {
			sum += v
		}
		rep.set("nncell.insert_batch_ms_per_point", float64(sum)*1e-6/float64(n*batchSize), n)
	}
	if n := len(svc[wDelete]); n > 0 {
		v, _ := percentile(svc[wDelete], 0.5)
		rep.set("nncell.delete_ack_p50_ms", float64(v)*1e-6, n)
	}
}

// lagMetrics reports how late an open-loop generator ran and what it shed.
// With strict set (the generator is not the program under test: the wire
// workloads), a run whose generator was late or shed is invalid, not slow.
func lagMetrics(rep *report, strict bool, runs ...openResult) {
	var lag []int64
	shed := 0
	for _, r := range runs {
		lag = append(lag, r.lag...)
		shed += r.tally.shed
	}
	slices.Sort(lag)
	v, _ := percentile(lag, 0.99)
	rep.set("driver.sched_lag_p99_us", float64(v)*1e-3, len(lag))
	rep.set("driver.shed", float64(shed), 0)
	if strict && (v > int64(time.Millisecond) || shed > 0) {
		rep.notef("INVALID RUN: the open-loop generator ran late (lag p99 %.0f us) or shed %d arrivals; the numbers describe the sandbox, not the program", float64(v)*1e-3, shed)
	}
}

// traceLibMixed runs the per-layer probes and the traced pass of
// lib-mixed-d4: reads through the front with the fixed op list's writes
// spread among them, all from one sequential client.
func traceLibMixed(p params, rep *report, tl *tally, w *mixedWorld, sz mixedSizes, tr *tracer,
	reader *readTarget, writer *libWriter, nextWrite, traceWrites int) error {
	buildMetrics(rep, w.buildS, w.buildStats)
	pr := prober{windows: p.probeWindows(), winLen: sz.slot}

	// The miss path's own latency on the bare index, for the baselines.
	bare := &readTarget{nn: w.sx, pool: w.pool, mir: w.mir, slots: make([]slot, 1)}
	nnE, err := pr.target(1, bare, tl)
	if err != nil {
		return err
	}
	var cand []int
	candE, err := pr.p50(func(i int) { cand = w.sx.CandidatesAppend(cand[:0], w.pool[i%len(w.pool)]) })
	if err != nil {
		return err
	}
	rep.setEst("nncell.candidates_p50_us", candE, 1e-3)
	rep.set("nncell.refine_self_us", (nnE.best-candE.best)*1e-3, 0)

	// The cell tree of shard 0, probed with the pool queries it owns.
	tree := w.sx.Shard(0).Tree()
	rep.set("xtree.height", float64(tree.Height()), 0)
	rep.set("xtree.supernodes", float64(tree.Supernodes()), 0)
	var own []vec.Point
	for qi, q := range w.pool {
		if w.table.entries[qi].id%w.sx.NumShards() == 0 {
			own = append(own, q)
		}
	}
	if len(own) > 0 {
		var qc xtree.QueryCtx
		var hits []int64
		if err := probeInto(rep, "xtree.cell_point_query_p50_us", 1e-3, pr, func(i int) {
			hits = tree.PointQueryData(&qc, own[i%len(own)], hits[:0])
		}); err != nil {
			return err
		}
	}
	if err := baselines(rep, pr, w.pts, w.pool, nnE); err != nil {
		return err
	}
	solveE, pivots, err := lpProbe(pr, w.sx, w.pool, sz.d)
	if err != nil {
		return err
	}
	rep.setEst("lp.solve_p50_us", solveE, 1e-3)
	rep.set("lp.pivots_per_solve", pivots, 0)

	// One shard against no shards, same points: what the sharding layer
	// itself costs a read.
	s1, err := buildSharded(w.pts, sz.d, 1, false)
	if err != nil {
		return err
	}
	s1E, err := pr.p50(func(i int) { s1.NearestNeighbor(w.pool[i%len(w.pool)]) })
	s1.Close()
	if err != nil {
		return err
	}
	bareIx, err := nncell.Build(w.pts, vec.UnitCube(sz.d), pager.New(pagerCfg), nncell.Options{Algorithm: nncell.NNDirection})
	if err != nil {
		return err
	}
	bareE, err := pr.p50(func(i int) { bareIx.NearestNeighbor(w.pool[i%len(w.pool)]) })
	if err != nil {
		return err
	}
	rep.set("shard.s1_overhead_ratio", s1E.best/bareE.best, s1E.n)

	// The cache's own operations, and the log's.
	answers := make([]nncell.Neighbor, len(w.pool))
	for i, e := range w.table.entries {
		answers[i] = nncell.Neighbor{ID: e.id, Dist2: e.dist2}
	}
	fresh := dataset.Uniform(rand.New(rand.NewSource(p.seed+2)), 1<<14, sz.d)
	getE, putE, invE, err := cacheProbe(pr, sz.cache, w.pool, fresh, answers)
	if err != nil {
		return err
	}
	rep.setEst("rescache.get_miss_ns", getE, 1)
	rep.setEst("rescache.put_ns", putE, 1)
	rep.setEst("rescache.invalidate_p50_us", invE, 1e-3)
	walDir, err := os.MkdirTemp(p.tmpDir, "walprobe-")
	if err != nil {
		return err
	}
	appE, syncE, err := walProbe(pr, walDir, sz.d)
	if err != nil {
		return err
	}
	rep.setEst("wal.append_p50_us", appE, 1e-3)
	rep.setEst("wal.sync_p50_us", syncE, 1e-3)

	// Traced run, after an untraced pass of the same shape.
	untraced := interleavedPass(p.traceOps(), reader, writer, nextWrite, traceWrites, tl, nil)
	tr.enabled.Store(true)
	writer.tr = tr
	traced := interleavedPass(p.traceOps(), reader, writer, nextWrite+traceWrites, traceWrites, tl,
		&passTrace{tr: tr, root: "client.op", candidates: w.sx, front: true})
	writer.tr = nil
	return traceMetrics(p, rep, tr, untraced, traced)
}
