package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nncell"
	"repro/internal/rescache"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vec"
)

// span is one timed call into a layer, as written to the trace file.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0 = a request's root
	Req     int64            `json:"req"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Probe   bool             `json:"probe,omitempty"` // issued by the bench beside the request, not part of it
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer records spans from the benchmark's own files, around the calls into
// each layer. The traced pass has one sequential client, so the spans of a
// request nest by time containment and parents are assigned from that when
// the pass ends; nothing is propagated through the program under test.
type tracer struct {
	enabled atomic.Bool
	req     atomic.Int64 // the request the sequential client is on
	epoch   time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle, or -1 when tracing is off.
func (t *tracer) begin(name string) int {
	if !t.enabled.Load() {
		return -1
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: t.req.Load(), Name: name, StartNS: start})
	return len(t.spans) - 1
}

// end closes the span; kv are count name/value pairs that ride on it.
func (t *tracer) end(h int, kv ...any) {
	if h < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[h]
	s.EndNS = end
	for i := 0; i+1 < len(kv); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]int64{}
		}
		s.Counts[kv[i].(string)] = kv[i+1].(int64)
	}
}

// probe records a call the bench makes beside a request to split a layer's
// time (CandidatesAppend: tree probe without refinement).
func (t *tracer) probe(name string, fn func() int64, count string) {
	h := t.begin(name)
	n := fn()
	t.end(h, count, n)
	if h >= 0 {
		t.mu.Lock()
		t.spans[h].Probe = true
		t.mu.Unlock()
	}
}

// finish assigns parents by time containment within each request, derives
// cache_hit on front.nn spans (a front call that never reached the index),
// and returns the spans with each one's self time: its duration minus the
// part its children cover.
func (t *tracer) finish() ([]span, []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.StartNS != y.StartNS {
			return x.StartNS < y.StartNS
		}
		return x.EndNS > y.EndNS
	})
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // end of the part of each span its children cover so far
	reachedIndex := make([]bool, len(spans))
	var stack []int
	for _, i := range order {
		s := &spans[i]
		self[i] = s.EndNS - s.StartNS
		covered[i] = s.StartNS
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.Req == s.Req && top.StartNS <= s.StartNS && s.EndNS <= top.EndNS && !top.Probe {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && !s.Probe {
			p := stack[len(stack)-1]
			s.Parent = spans[p].ID
			// Children of one parent are visited in start order, so the union
			// of their intervals is accumulated with a running end.
			from := max(s.StartNS, covered[p])
			if s.EndNS > from {
				self[p] -= s.EndNS - from
				covered[p] = s.EndNS
			}
			if strings.HasPrefix(s.Name, "index.") {
				reachedIndex[p] = true
			}
		}
		stack = append(stack, i)
	}
	for i := range spans {
		if spans[i].Name == "front.nn" {
			if spans[i].Counts == nil {
				spans[i].Counts = map[string]int64{}
			}
			spans[i].Counts["cache_hit"] = b2i(!reachedIndex[i])
		}
	}
	return spans, self
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes groups self times (ns, sorted) by span name.
func selfTimes(spans []span, self []int64) map[string][]int64 {
	by := map[string][]int64{}
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], self[i])
	}
	for _, v := range by {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return by
}

// index is what the workloads need from an index: the served surface plus
// what the result-cache front forwards. *nncell.Index and *shard.Sharded
// both satisfy it.
type index interface {
	server.Index
	rescache.Inner
}

// tracedIndex decorates an index with index.* spans. Counts ride on the span
// of the call that caused them: shards visited on reads, LP solves on writes
// (with lazy repair, solves the background pool finished during the call are
// in the delta too).
type tracedIndex struct {
	index
	tr *tracer
}

func (x tracedIndex) visited() int64 {
	if r, ok := x.index.(interface{ RouteStats() shard.RouteStats }); ok {
		return int64(r.RouteStats().Visited)
	}
	return 0
}

func (x tracedIndex) NearestNeighbor(q vec.Point) (nncell.Neighbor, error) {
	h := x.tr.begin("index.nn")
	if h < 0 {
		return x.index.NearestNeighbor(q)
	}
	v0 := x.visited()
	nb, err := x.index.NearestNeighbor(q)
	x.tr.end(h, "shards_visited", x.visited()-v0)
	return nb, err
}

func (x tracedIndex) write(name string, fn func() error) error {
	h := x.tr.begin(name)
	if h < 0 {
		return fn()
	}
	s0 := x.index.Stats().LPSolves
	err := fn()
	x.tr.end(h, "lp_solves", int64(x.index.Stats().LPSolves-s0))
	return err
}

func (x tracedIndex) Insert(p vec.Point) (id int, err error) {
	err = x.write("index.insert", func() error { id, err = x.index.Insert(p); return err })
	return id, err
}

func (x tracedIndex) InsertBatch(ps []vec.Point) (ids []int, err error) {
	err = x.write("index.insert_batch", func() error { ids, err = x.index.InsertBatch(ps); return err })
	return ids, err
}

func (x tracedIndex) Delete(id int) error {
	return x.write("index.delete", func() error { return x.index.Delete(id) })
}

// tracedHandler wraps an http.Handler with a span around the requests the
// sequential client causes: the query and write endpoints. Health probes,
// metric scrapes and the replication stream run beside the client and would
// not nest.
func tracedHandler(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") || strings.HasPrefix(r.URL.Path, "/v1/repl/") {
			h.ServeHTTP(w, r)
			return
		}
		s := tr.begin(name)
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}
