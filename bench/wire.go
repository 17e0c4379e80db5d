package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/replica"
	"repro/internal/vec"
)

// loadClient returns an HTTP client that keeps at most conns keep-alive
// connections per host: the load a workload offers is sized to the machine.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// post sends one JSON request and reads the whole reply into buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (status int, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// wireSlot is one connection's last reply.
type wireSlot struct {
	buf bytes.Buffer
	nn  struct {
		nncell.Neighbor
		Point []float64 `json:"point"`
	}
	knn struct {
		Neighbors []nncell.Neighbor `json:"neighbors"`
	}
	_ [64]byte
}

// httpReads sends /v1/nn (k == 0) or /v1/knn requests over a pool. Request
// bodies are encoded at set-up; the reply is decoded inside the timed call, as
// a client would.
type httpReads struct {
	client *http.Client
	url    string
	k      int
	pool   []vec.Point
	bodies [][]byte
	table  *oracle // nil while the point set moves: then the reply must be self-consistent
	slots  []wireSlot
	non200 atomic.Int64
}

// encodeBodies renders the request body of every pool entry.
func encodeBodies(pool []vec.Point, k int) [][]byte {
	out := make([][]byte, len(pool))
	for i, q := range pool {
		req := map[string]any{"point": []float64(q)}
		if k > 0 {
			req["k"] = k
		}
		out[i], _ = json.Marshal(req) // a map of floats and ints cannot fail to encode
	}
	return out
}

func newHTTPReads(client *http.Client, base string, k int, pool []vec.Point, table *oracle, conns int) *httpReads {
	t := &httpReads{client: client, url: base + "/v1/nn", k: k, pool: pool, table: table,
		bodies: encodeBodies(pool, k), slots: make([]wireSlot, conns)}
	if k > 0 {
		t.url = base + "/v1/knn"
	}
	return t
}

func (t *httpReads) query(i int) int { return i % len(t.pool) }

func (t *httpReads) queryPoint(i int) vec.Point { return t.pool[t.query(i)] }

func (t *httpReads) do(c, i int) error {
	s := &t.slots[c]
	status, err := post(t.client, t.url, t.bodies[t.query(i)], &s.buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		t.non200.Add(1)
		return fmt.Errorf("%s: status %d: %s", t.url, status, bytes.TrimSpace(s.buf.Bytes()))
	}
	if t.k > 0 {
		return json.Unmarshal(s.buf.Bytes(), &s.knn)
	}
	return json.Unmarshal(s.buf.Bytes(), &s.nn)
}

func (t *httpReads) check(c, i int) bool {
	s := &t.slots[c]
	qi := t.query(i)
	switch {
	case t.k > 0:
		return t.table.checkKNN(qi, s.knn.Neighbors)
	case t.table != nil:
		return t.table.checkNN(qi, s.nn.Neighbor)
	}
	// The reply carries the neighbour's coordinates, so self-consistency
	// needs no second request.
	return len(s.nn.Point) == len(t.pool[qi]) &&
		sameDist(vec.Euclidean{}.Dist2(t.pool[qi], s.nn.Point), s.nn.Dist2)
}

// wireWriteOps is the wire writer's fixed op list: `nncell serve` repairs
// eagerly, so a period is seven single inserts and one delete.
var wireWriteOps = []writeKind{wInsert, wInsert, wInsert, wInsert, wInsert, wInsert, wInsert, wDelete}

// httpWriter applies the fixed op list through the router and mirrors every
// acknowledged write. After each acknowledged insert a poller asks one
// follower directly, every 5 ms, until the point is its own nearest
// neighbour there: the time a write takes to become visible to reads.
type httpWriter struct {
	client   *http.Client
	base     string // where writes go: the router
	follower string // where visibility is polled
	ops      []writeKind
	points   [][]vec.Point
	mir      *mirror
	tr       *tracer
	buf      bytes.Buffer

	svc     [numWriteKinds][]int64
	pollers sync.WaitGroup
	mu      sync.Mutex
	visible []int64 // ack → visible on the follower, ns
	unseen  int     // inserts that never became visible
}

const (
	visiblePoll    = 5 * time.Millisecond
	visibleTimeout = 10 * time.Second
)

func (w *httpWriter) do(_, i int) error {
	kind := w.ops[i%len(w.ops)]
	h := -1
	if w.tr != nil {
		w.tr.req.Add(1)
		h = w.tr.begin("client.request")
	}
	t0 := time.Now()
	err := w.send(kind, i)
	w.svc[kind] = append(w.svc[kind], int64(time.Since(t0)))
	if w.tr != nil {
		w.tr.end(h)
	}
	return err
}

func (w *httpWriter) send(kind writeKind, i int) error {
	switch kind {
	case wInsert:
		p := w.points[i][0]
		body, _ := json.Marshal(map[string]any{"point": []float64(p)})
		status, err := post(w.client, w.base+"/v1/insert", body, &w.buf)
		if err != nil {
			return err
		}
		var ack struct {
			ID *int `json:"id"`
		}
		if status != http.StatusOK || json.Unmarshal(w.buf.Bytes(), &ack) != nil || ack.ID == nil {
			return fmt.Errorf("insert: status %d: %s", status, bytes.TrimSpace(w.buf.Bytes()))
		}
		w.mir.inserted(*ack.ID, p)
		if w.follower != "" {
			w.pollers.Add(1)
			go w.pollVisible(p, time.Now())
		}
	case wDelete:
		id, ok := w.mir.oldest()
		if !ok {
			return nil
		}
		body, _ := json.Marshal(map[string]int{"id": id})
		status, err := post(w.client, w.base+"/v1/delete", body, &w.buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("delete %d: status %d: %s", id, status, bytes.TrimSpace(w.buf.Bytes()))
		}
		w.mir.deleted(id)
	}
	return nil
}

func (w *httpWriter) check(int, int) bool { return true }

func (w *httpWriter) pollVisible(p vec.Point, acked time.Time) {
	defer w.pollers.Done()
	body, _ := json.Marshal(map[string]any{"point": []float64(p)})
	var buf bytes.Buffer
	var reply struct {
		Dist2 *float64 `json:"dist2"`
	}
	for time.Since(acked) < visibleTimeout {
		status, err := post(control, w.follower+"/v1/nn", body, &buf)
		reply.Dist2 = nil
		if err == nil && status == http.StatusOK && json.Unmarshal(buf.Bytes(), &reply) == nil &&
			reply.Dist2 != nil && *reply.Dist2 == 0 {
			w.mu.Lock()
			w.visible = append(w.visible, int64(time.Since(acked)))
			w.mu.Unlock()
			return
		}
		time.Sleep(visiblePoll)
	}
	w.mu.Lock()
	w.unseen++
	w.mu.Unlock()
}

// httpBatchNN asks a node for many nearest neighbours through /v1/nn/batch,
// in requests of at most the server's default batch cap.
func httpBatchNN(base string) batchNN {
	return func(qs []vec.Point) ([]nncell.Neighbor, error) {
		var out []nncell.Neighbor
		var buf bytes.Buffer
		for len(qs) > 0 {
			n := min(len(qs), 1024)
			pts := make([][]float64, n)
			for i, q := range qs[:n] {
				pts[i] = q
			}
			body, _ := json.Marshal(map[string]any{"points": pts})
			status, err := post(control, base+"/v1/nn/batch", body, &buf)
			if err != nil {
				return nil, err
			}
			var reply struct {
				Results []nncell.Neighbor `json:"results"`
			}
			if status != http.StatusOK || json.Unmarshal(buf.Bytes(), &reply) != nil || len(reply.Results) != n {
				return nil, fmt.Errorf("nn/batch: status %d: %.200s", status, buf.Bytes())
			}
			out = append(out, reply.Results...)
			qs = qs[n:]
		}
		return out, nil
	}
}

// saveSnapshot writes the index to path and returns how long Save took and
// the file's size.
func saveSnapshot(ix interface{ Save(io.Writer) error }, path string) (seconds float64, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	if err = ix.Save(f); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("saving snapshot: %w", err)
	}
	if err = f.Close(); err != nil {
		return 0, 0, err
	}
	seconds = time.Since(t0).Seconds()
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return seconds, st.Size(), nil
}

// served is an index behind a running cluster.
type served struct {
	c         *cluster
	dir       string
	snapshot  string
	saveS     float64
	snapBytes int64
}

func (s *served) close() {
	if s.c != nil {
		s.c.close()
	}
	os.RemoveAll(s.dir)
}

// serve saves ix under a fresh directory and starts a cluster on the file.
func serve(p params, ix interface{ Save(io.Writer) error }) (*served, error) {
	dir, err := os.MkdirTemp(p.tmpDir, "cluster-")
	if err != nil {
		return nil, err
	}
	s := &served{dir: dir, snapshot: filepath.Join(dir, "snapshot")}
	if s.saveS, s.snapBytes, err = saveSnapshot(ix, s.snapshot); err != nil {
		s.close()
		return nil, err
	}
	if s.c, err = startCluster(p, s.snapshot, dir); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// clusterMetrics records what a wire workload's set-up cost beside the build.
func clusterMetrics(rep *report, s *served, points int, load func(io.Reader) error) error {
	rep.set("nncell.save_s", s.saveS, 0)
	rep.set("nncell.snapshot_bytes_per_point", float64(s.snapBytes)/float64(points), 0)
	rep.set("replica.bootstrap_s", s.c.bootstrapS, 0)
	f, err := os.Open(s.snapshot)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	if err := load(f); err != nil {
		return fmt.Errorf("loading snapshot: %w", err)
	}
	rep.set("nncell.load_s", time.Since(t0).Seconds(), 0)
	return nil
}

// counters is a snapshot of the cluster's own counters, taken before and
// after the timed phases.
type counters struct {
	router    replica.RouterStats
	followers map[string]float64 // /metrics of both followers, summed
	primary   map[string]float64
}

func (c *cluster) counters() (out counters, err error) {
	if out.router, err = c.routerStats(); err != nil {
		return out, err
	}
	if out.followers, err = scrapeSum(c.followers...); err != nil {
		return out, err
	}
	out.primary, err = scrapeSum(c.primary)
	return out, err
}

// counterMetrics reports the deltas of the cluster's counters over the timed
// phases.
func counterMetrics(rep *report, before, after counters, non200 int64) {
	d := func(m0, m1 map[string]float64, k string) float64 { return m1[k] - m0[k] }
	rep.set("replica.hedges", float64(after.router.Hedges-before.router.Hedges), 0)
	rep.set("replica.failovers", float64(after.router.Failovers-before.router.Failovers), 0)
	rep.set("replica.shed_to_primary", float64(after.router.PrimaryReads-before.router.PrimaryReads), 0)
	rep.set("server.shed", d(before.followers, after.followers, "nncell_http_rejected_total")+
		d(before.primary, after.primary, "nncell_http_rejected_total"), 0)
	rep.set("server.non200", float64(non200), 0)
	if q := d(before.followers, after.followers, "nncell_index_queries_total"); q > 0 {
		rep.set("nncell.candidates_per_query", d(before.followers, after.followers, "nncell_index_candidates_total")/q, int(q))
	}
	if q := d(before.followers, after.followers, "nncell_query_shards_visited_count"); q > 0 {
		rep.set("shard.visited_per_query", d(before.followers, after.followers, "nncell_query_shards_visited_sum")/q, int(q))
	}
	rep.set("nncell.fallbacks", after.followers["nncell_index_fallbacks_total"]+after.primary["nncell_index_fallbacks_total"], 0)
}

// ---------------------------------------------------------------------------
// wire-read-d8

const (
	wireReadRate = 500 // NN requests per second, open loop
	wireKNNRate  = 200 // k=10 requests per second, open loop

	// openSlot is a slot of the 500/s schedule: 1 000 requests, so its p99
	// has ten samples beyond it.
	openSlot = 2 * time.Second
	// shortSlot is a slot of the loads that only need a median or a rate.
	shortSlot = 500 * time.Millisecond
	// wireWindow is the window of a median over the wire (125 requests of the
	// 500/s schedule), rateWindow that of a closed loop's rate.
	wireWindow = 250 * time.Millisecond
	rateWindow = 100 * time.Millisecond
	// traceReadSeconds is how long a traced wire-mixed-d4 run reads for in its
	// quiet phase (three cycles), for nn_p99_us.
	traceReadSeconds = 7.5
)

// maxOutstanding bounds an open-loop generator's backlog (arrivals waiting for
// a connection plus those in flight) at eight seconds of arrivals: past that
// the oldest would run into the client's timeout anyway. It is a backstop
// against a stuck cluster, not an admission limit, because a healthy run must
// not fail a request even when the sandbox stalls for a second.
func maxOutstanding(rate float64) int { return int(8 * rate) }

// wireReads is the read load of a wire workload through the router.
type wireReads struct {
	p       params
	tl      *tally
	nn, knn *httpReads
	opens   []openResult
}

func (wr *wireReads) open(d time.Duration, rate float64, tg target) []sample {
	r := openLoop(time.Now(), d, rate, wr.p.nproc, maxOutstanding(rate), tg)
	wr.tl.add(r.tally)
	wr.opens = append(wr.opens, r)
	return r.samples
}

// measure sets the read latencies from about `seconds` of load. Two kinds
// take turns: NN on a 500/s schedule and k=10 on a 200/s schedule.
func (wr *wireReads) measure(rep *report, seconds float64) error {
	openS, knnS := series{slotLen: openSlot}, series{slotLen: shortSlot}
	cycle := openSlot + shortSlot
	for c := max(1, int(math.Round(seconds/cycle.Seconds()))); c > 0; c-- {
		openS.add(wr.open(openSlot, wireReadRate, wr.nn))
		knnS.add(wr.open(shortSlot, wireKNNRate, wr.knn))
	}
	if err := estimateInto(rep, "nn_p50_us", &openS, statP50, wireWindow, 1e-3); err != nil {
		return err
	}
	tailInto(rep, &openS)
	return estimateInto(rep, "knn10_p50_us", &knnS, statP50, wireWindow, 1e-3)
}

// tailInto sets nn_p99_us from an open-500 series: the p99 over every run of
// 1 000 consecutive requests of the schedule (ten samples beyond it), a run
// starting every 250 requests.
func tailInto(rep *report, openS *series) {
	if e, ok := openS.estimateRuns(statP99, 1000, 250); ok {
		rep.setEst("nn_p99_us", e, 1e-3)
	} else {
		rep.notef("nn_p99_us: fewer than 1000 requests completed")
	}
}

// closed sets nn_qps: NN closed loop on nproc connections.
func (wr *wireReads) closed(rep *report, slots int) {
	sr := series{slotLen: shortSlot}
	for i := 0; i < slots; i++ {
		sr.add(closedSlot(time.Now(), shortSlot, wr.p.nproc, 1<<13, wr.nn, wr.tl))
	}
	estimateLayer(rep, "nn_qps", &sr, statRate, rateWindow, 1)
}

type wireReadWorld struct {
	*nnWorld
	*served
}

func (w wireReadWorld) close() { w.served.close() }

func runWireRead(p params, rep *report, tl *tally) error {
	buildS, err := buildBinaries(p)
	if err != nil {
		return err
	}
	sz := libNNSizes(p.smoke)
	w, err := timedSetup(rep, func() (wireReadWorld, error) {
		nw, err := setupNN(p, sz)
		if err != nil {
			return wireReadWorld{}, err
		}
		s, err := serve(p, nw.ix)
		return wireReadWorld{nw, s}, err
	})
	if err != nil {
		return err
	}
	defer w.close()
	mem, err := w.c.primary.rssMB()
	if err != nil {
		return err
	}
	rep.set("mem_mb", mem, 0)

	client := loadClient(p.nproc)
	router := w.c.router.url()
	wr := &wireReads{p: p, tl: tl,
		nn:  newHTTPReads(client, router, 0, w.pool, w.table, p.nproc),
		knn: newHTTPReads(client, router, oracleK, w.pool, w.table, p.nproc),
	}
	if !p.trace {
		return wr.measure(rep, p.seconds)
	}

	// Per-layer pass.
	rep.set("driver.go_build_s", buildS, 0)
	buildMetrics(rep, w.buildS, w.buildStats)
	if err := clusterMetrics(rep, w.served, len(w.pts), func(r io.Reader) error {
		_, err := nncell.Load(r, pager.New(pagerCfg))
		return err
	}); err != nil {
		return err
	}
	before, err := w.c.counters()
	if err != nil {
		return err
	}
	wr.closed(rep, 2*p.probeWindows())
	// open-500 through the router and the same schedule straight to one
	// follower, interleaved window by window so both see the same weather.
	direct := newHTTPReads(client, w.c.followers[0].url(), 0, w.pool, w.table, p.nproc)
	viaRouter, viaDirect := series{slotLen: openSlot}, series{slotLen: openSlot}
	for i := 0; i < p.probeWindows(); i++ {
		viaRouter.add(wr.open(openSlot, wireReadRate, wr.nn))
		viaDirect.add(wr.open(openSlot, wireReadRate, direct))
	}
	tailInto(rep, &viaRouter)
	estimateLayer(rep, "server.direct_nn_p50_us", &viaDirect, statP50, wireWindow, 1e-3)
	routerE, ok := viaRouter.estimate(statP50, wireWindow)
	if directUS, measured := rep.get("server.direct_nn_p50_us"); ok && measured {
		rep.set("replica.router_hop_us", routerE.best*1e-3-directUS, 0)
	}
	lagMetrics(rep, true, wr.opens...)
	after, err := w.c.counters()
	if err != nil {
		return err
	}
	counterMetrics(rep, before, after, wr.nn.non200.Load()+direct.non200.Load())

	pr := prober{windows: p.probeWindows(), winLen: shortSlot}
	if err := handlerProbe(rep, pr, w.ix, wr.nn.bodies); err != nil {
		return err
	}
	obsE, err := observeProbe(pr, p.nproc)
	if err != nil {
		return err
	}
	rep.setEst("stats.observe_ns", obsE, 1)

	return traceWire(p, rep, tl, w.ix, nil, w.pool, w.table, nil)
}

// ---------------------------------------------------------------------------
// wire-mixed-d4

func wireMixedSizes(smoke bool) mixedSizes {
	if smoke {
		return mixedSizes{n: 500, d: 4, pool: 256, shards: 4, writeRate: 4}
	}
	return mixedSizes{n: 5000, d: 4, pool: 4096, shards: 4, writeRate: 4}
}

type wireMixedWorld struct {
	*mixedWorld
	*served
}

func (w wireMixedWorld) close() {
	w.served.close()
	w.mixedWorld.close()
}

func runWireMixed(p params, rep *report, tl *tally) error {
	buildS, err := buildBinaries(p)
	if err != nil {
		return err
	}
	sz := wireMixedSizes(p.smoke)
	w, err := timedSetup(rep, func() (wireMixedWorld, error) {
		// The served processes repair eagerly and keep their own logs; the
		// in-process index only has to be built and saved.
		mw, err := setupMixed(p, sz, false, false)
		if err != nil {
			return wireMixedWorld{}, err
		}
		s, err := serve(p, mw.sx)
		if err != nil {
			mw.close()
		}
		return wireMixedWorld{mw, s}, err
	})
	if err != nil {
		return err
	}
	defer w.close()
	mem, err := w.c.primary.rssMB()
	if err != nil {
		return err
	}
	rep.set("mem_mb", mem, 0)

	client := loadClient(p.nproc)
	router := w.c.router.url()
	nn := newHTTPReads(client, router, 0, w.pool, w.table, p.nproc)
	before, err := w.c.counters()
	if err != nil {
		return err
	}

	// quiet: two thirds of the timed seconds, the reads alone. The end-to-end
	// read metrics come from here, for the reason lib-mixed-d4 gives.
	period := sz.period(wireWriteOps)
	periods := max(1, int(math.Round(p.seconds/3/period.Seconds())))
	wr := &wireReads{p: p, tl: tl, nn: nn, knn: newHTTPReads(client, router, oracleK, w.pool, w.table, p.nproc)}
	quiet := p.seconds * 2 / 3
	if p.trace {
		periods, quiet = p.probeWindows(), traceReadSeconds
	}
	if err := wr.measure(rep, quiet); err != nil {
		return err
	}
	if p.trace {
		wr.closed(rep, 2*p.probeWindows())
	}

	// churn: NN on the 500/s schedule beside the write list, one period per
	// window. Every answer is checked; the timings are per-layer metrics.
	nn.table = nil // the point set moves from here on
	total := time.Duration(periods) * period
	rng := rand.New(rand.NewSource(p.seed + 1))
	nWrites := periods * len(wireWriteOps)
	traceWrites := 4 * len(wireWriteOps)
	writer := &httpWriter{
		client: loadClient(1), base: router, follower: w.c.followers[0].url(),
		ops: wireWriteOps, mir: w.mir,
		points: writePoints(rng, wireWriteOps, nWrites+2*traceWrites, sz.d),
	}
	start := time.Now()
	writes := make(chan openResult, 1)
	go func() { writes <- openLoop(start, total, sz.writeRate, 1, maxOutstanding(sz.writeRate), writer) }()
	lagMax := make(chan float64, 1)
	go func() { lagMax <- watchLag(w.c.followers[0], start, total, period) }()
	reads := openLoop(start, total, wireReadRate, p.nproc, maxOutstanding(wireReadRate), nn)
	tl.add(reads.tally)
	wrote := <-writes
	tl.add(wrote.tally)
	writer.pollers.Wait()
	tl.attempted += len(writer.visible) + writer.unseen
	tl.errors += writer.unseen
	if writer.unseen > 0 {
		rep.notef("%d acknowledged inserts never became visible on %s within %v", writer.unseen, w.c.followers[0].name, visibleTimeout)
	}
	lagRecords := <-lagMax

	if p.trace {
		after, err := w.c.counters()
		if err != nil {
			return err
		}
		rep.set("driver.go_build_s", buildS, 0)
		buildMetrics(rep, w.buildS, w.buildStats)
		if err := clusterMetrics(rep, w.served, len(w.pts), func(r io.Reader) error {
			sx, err := loadSharded(r)
			if err == nil {
				sx.Close()
			}
			return err
		}); err != nil {
			return err
		}
		counterMetrics(rep, before, after, nn.non200.Load())
		readS := periodSeries(reads.samples, periods, period)
		estimateLayer(rep, "churn.nn_p50_us", readS, statP50, period, 1e-3)
		estimateLayer(rep, "churn.nn_p99_us", readS, statP99, period, 1e-3)
		estimateLayer(rep, "write_mean_ms", periodSeries(wrote.samples, periods, period), statMean, period, 1e-6)
		ackMetrics(rep, &writer.svc)
		slices.Sort(writer.visible)
		if len(writer.visible) > 0 {
			v, _ := percentile(writer.visible, 0.5)
			rep.set("repl_visible_p50_ms", float64(v)*1e-6, len(writer.visible))
		}
		rep.set("replica.lag_records_max", lagRecords, 0)
		dp := func(k string) float64 { return after.primary[k] - before.primary[k] }
		rep.set("wal.bytes_per_point", dp("nncell_wal_appended_bytes_total")/float64(pointsWritten(wireWriteOps, wrote.tally.attempted)), 0)
		rep.set("wal.syncs_per_s", dp("nncell_wal_fsyncs_total")/total.Seconds(), 0)
		lagMetrics(rep, true, reads, wrote)
		pr := prober{windows: p.probeWindows(), winLen: shortSlot}
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
		solveE, pivots, err := lpProbe(pr, w.sx, w.pool, sz.d)
		if err != nil {
			return err
		}
		rep.setEst("lp.solve_p50_us", solveE, 1e-3)
		rep.set("lp.pivots_per_solve", pivots, 0)
	}

	// Final check, once both followers have applied everything: every pool
	// query on all three nodes against a scan over the mirrored point set, and
	// every acknowledged insert present on all three.
	if err := w.c.waitCaughtUp(20 * time.Second); err != nil {
		return err
	}
	nodes := map[string]batchNN{}
	for name, n := range w.c.nodes() {
		nodes[name] = httpBatchNN(n.url())
	}
	checked, wrong, detail := finalCheck(w.mir, w.pool, nodes)
	tl.attempted += checked
	tl.wrong += wrong
	for _, d := range detail {
		rep.notef("final check: %s", d)
	}

	if p.trace {
		// The traced topology starts from the build-time index, not from the
		// cluster's state: it gets a mirror of its own.
		tw := &httpWriter{ops: wireWriteOps, mir: mirrorOf(w.sx), points: writer.points[nWrites:]}
		return traceWire(p, rep, tl, nil, w.sx, w.pool, nil, tw)
	}
	return nil
}

// periodSeries files the samples of a phase that began at at = 0 under the
// period each belongs to.
func periodSeries(samples []sample, periods int, period time.Duration) *series {
	sr := &series{slotLen: period, slots: make([][]sample, periods)}
	for _, s := range samples {
		if j := s.at / int64(period); s.at >= 0 && j < int64(periods) {
			sr.slots[j] = append(sr.slots[j], sample{at: s.at - j*int64(period), lat: s.lat})
		}
	}
	return sr
}

// watchLag scrapes a follower's replication lag once per window and returns
// the largest value seen.
func watchLag(f *proc, start time.Time, total, every time.Duration) float64 {
	worst := 0.0
	for at := every / 2; at < total; at += every {
		time.Sleep(time.Until(start.Add(at)))
		if m, err := scrape(f.url()); err == nil {
			worst = max(worst, m["nncell_repl_lag_records"])
		}
	}
	return worst
}
