package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestPercentileIsExactAndNeedsATail(t *testing.T) {
	// Nearest rank on 1..1000: the 99th percentile is the 990th value, with
	// exactly ten samples beyond it.
	v, ok := percentile(seq(1000), 0.99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d, qualified %v; want 990, true", v, ok)
	}
	// One sample fewer leaves nine beyond: the value is still exact, but the
	// window must not report it.
	if v, ok = percentile(seq(999), 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %d, qualified %v; want 990, false", v, ok)
	}
	if v, ok = percentile(seq(21), 0.5); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %d, qualified %v; want 11, true", v, ok)
	}
	if _, ok = percentile(nil, 0.5); ok {
		t.Error("an empty window qualified")
	}
}

func TestEstimateKeepsBestMedianWorstWindow(t *testing.T) {
	// Three windows whose medians are 30, 10 and 20; a fourth too small to
	// have a median.
	mk := func(center int64) []int64 {
		w := make([]int64, 41)
		for i := range w {
			w[i] = center - 20 + int64(i)
		}
		return w
	}
	wins := [][]int64{mk(30), mk(10), mk(20), {1, 2, 3}}
	e, ok := estimateWindows(wins, statP50, time.Second)
	if !ok || e.best != 10 || e.med != 20 || e.worst != 30 || e.n != 41 || e.windows != 3 {
		t.Errorf("latency estimate = %+v, ok %v", e, ok)
	}
	// For a rate the best window is the one with the most completions.
	e, ok = estimateWindows(wins, statRate, 500*time.Millisecond)
	if !ok || e.best != 82 || e.worst != 6 || e.windows != 4 {
		t.Errorf("rate estimate = %+v, ok %v", e, ok)
	}
	if e, ok = estimateWindows([][]int64{{5, 7}}, statMean, time.Second); !ok || e.best != 6 {
		t.Errorf("mean estimate = %+v, ok %v", e, ok)
	}
	if _, ok = estimateWindows([][]int64{{1, 2, 3}}, statP99, time.Second); ok {
		t.Error("a p99 was reported from three samples")
	}
}

func TestSplitWindowsAndSeries(t *testing.T) {
	ms := int64(time.Millisecond)
	samples := []sample{{at: 0, lat: 9}, {at: 99 * ms, lat: 3}, {at: 100 * ms, lat: 5}, {at: 250 * ms, lat: 1}, {at: -1, lat: 7}, {at: 300 * ms, lat: 7}}
	wins := splitWindows(samples, 3, 100*time.Millisecond)
	if len(wins) != 3 || len(wins[0]) != 2 || wins[0][0] != 3 || wins[0][1] != 9 || len(wins[1]) != 1 || len(wins[2]) != 1 {
		t.Errorf("windows = %v", wins)
	}
	sr := series{slotLen: 200 * time.Millisecond}
	sr.add([]sample{{at: 10 * ms, lat: 4}, {at: 150 * ms, lat: 8}})
	sr.add([]sample{{at: 20 * ms, lat: 2}})
	e, ok := sr.estimate(statMean, 100*time.Millisecond)
	if !ok || e.best != 2 || e.worst != 8 || e.windows != 3 {
		t.Errorf("series estimate = %+v, ok %v", e, ok)
	}
	// Runs of two consecutive requests in schedule order across the slots,
	// one starting at every request: (4,8) (8,2).
	if e, ok = sr.estimateRuns(statMean, 2, 1); !ok || e.best != 5 || e.worst != 6 || e.windows != 2 {
		t.Errorf("estimate over runs = %+v, ok %v", e, ok)
	}
}

func TestInterleaveSpreadsKinds(t *testing.T) {
	order := interleave([]int{4, 2, 2})
	got := make([]int, 3)
	for _, k := range order {
		got[k]++
	}
	if len(order) != 8 || got[0] != 4 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] && order[i] != 0 {
			t.Errorf("kind %d runs twice in a row in %v", order[i], order)
		}
	}
	// Each half holds half of every kind.
	half := make([]int, 3)
	for _, k := range order[:4] {
		half[k]++
	}
	if half[0] != 2 || half[1] != 1 || half[2] != 1 {
		t.Errorf("first half of %v holds %v", order, half)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q2, q3 = quartiles([]float64{40, 10, 20}); q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

// stallTarget answers at once, except that request `at` takes `stall`.
type stallTarget struct {
	at    int
	stall time.Duration
	calls atomic.Int64
}

func (s *stallTarget) do(_, i int) error {
	s.calls.Add(1)
	if i == s.at {
		time.Sleep(s.stall)
	}
	return nil
}
func (s *stallTarget) check(int, int) bool { return true }

// A stall of the target must show in the latency of every request that was
// due during it, not only in the one request that was stalled: that is what
// timing from the due time buys.
func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const (
		rate    = 200.0 // one request every 5 ms
		stallAt = 20    // due at 100 ms
	)
	stall := 100 * time.Millisecond
	tg := &stallTarget{at: stallAt, stall: stall}
	res := openLoop(time.Now(), 400*time.Millisecond, rate, 1, 1000, tg)
	if res.tally.attempted != 80 || res.tally.failed() != 0 || len(res.samples) != 80 {
		t.Fatalf("tally %+v, %d samples", res.tally, len(res.samples))
	}
	if len(res.lag) != 80 {
		t.Fatalf("%d lag readings for 80 arrivals", len(res.lag))
	}
	interval := time.Duration(float64(time.Second) / rate)
	late := 0
	for _, s := range res.samples {
		due := time.Duration(s.at)
		lat := time.Duration(s.lat)
		i := int(math.Round(float64(due) / float64(interval)))
		switch {
		case i < stallAt:
			if lat > 50*time.Millisecond {
				t.Errorf("request %d, due before the stall, took %v", i, lat)
			}
		case i < stallAt+int(stall/interval):
			// Due while the single connection was stalled: it waited for the
			// rest of the stall.
			want := stall - (due - time.Duration(stallAt)*interval)
			if lat < want-2*time.Millisecond {
				t.Errorf("request %d, due %v into the stall, has latency %v, want at least %v",
					i, due-time.Duration(stallAt)*interval, lat, want)
			}
			late++
		}
	}
	if late != int(stall/interval) {
		t.Errorf("%d requests were due during the stall, want %d", late, int(stall/interval))
	}
}

func TestOpenLoopShedsAtTheOutstandingCap(t *testing.T) {
	tg := &stallTarget{at: 0, stall: 150 * time.Millisecond}
	// One connection, stuck on request 0; at most 4 may wait or be in flight.
	res := openLoop(time.Now(), 100*time.Millisecond, 200, 1, 4, tg)
	if res.tally.attempted != 20 {
		t.Fatalf("attempted %d, want 20", res.tally.attempted)
	}
	if res.tally.shed != 16 || res.tally.failed() != 16 {
		t.Errorf("shed %d, failed %d; want 16 of each (4 accepted)", res.tally.shed, res.tally.failed())
	}
	if got := tg.calls.Load(); got != 4 {
		t.Errorf("target saw %d requests, want the 4 that were not shed", got)
	}
}

// wrongTarget fails its check on every third request and errors on every
// fifth.
type wrongTarget struct{}

func (wrongTarget) do(_, i int) error {
	if i%5 == 4 {
		return errBoom
	}
	return nil
}
func (wrongTarget) check(_, i int) bool { return i%3 != 0 }

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestClosedLoopTalliesErrorsAndWrongAnswers(t *testing.T) {
	samples, tl := closedLoop(time.Now(), 20*time.Millisecond, 2, 1024, wrongTarget{})
	if tl.attempted == 0 || tl.errors == 0 || tl.wrong == 0 {
		t.Fatalf("tally %+v", tl)
	}
	if tl.attempted != len(samples)+tl.failed() {
		t.Errorf("attempted %d != %d good samples + %d failed", tl.attempted, len(samples), tl.failed())
	}
	if tl.firstErr != errBoom {
		t.Errorf("first error = %v", tl.firstErr)
	}
}

func TestTracerNestsByContainmentAndTakesSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	// One request: client 0..100, router 10..90, server 20..60, index 30..40,
	// and a second server attempt 65..85 (a hedge); then a probe beside it.
	tr.spans = []span{
		{ID: 1, Req: 1, Name: "client.request", StartNS: 0, EndNS: 100},
		{ID: 2, Req: 1, Name: "router.serve", StartNS: 10, EndNS: 90},
		{ID: 3, Req: 1, Name: "server.serve", StartNS: 20, EndNS: 60},
		{ID: 4, Req: 1, Name: "index.nn", StartNS: 30, EndNS: 40},
		{ID: 5, Req: 1, Name: "server.serve", StartNS: 65, EndNS: 85},
		{ID: 6, Req: 1, Name: "probe.candidates", StartNS: 110, EndNS: 150, Probe: true},
		{ID: 7, Req: 2, Name: "client.op", StartNS: 200, EndNS: 260},
		{ID: 8, Req: 2, Name: "front.nn", StartNS: 210, EndNS: 250},
		{ID: 9, Req: 3, Name: "client.op", StartNS: 300, EndNS: 360},
		{ID: 10, Req: 3, Name: "front.nn", StartNS: 310, EndNS: 350},
		{ID: 11, Req: 3, Name: "index.nn", StartNS: 320, EndNS: 345},
	}
	spans, self := tr.finish()
	wantParent := []int{0, 1, 2, 3, 2, 0, 0, 7, 0, 9, 10}
	wantSelf := []int64{20, 20, 30, 10, 20, 40, 20, 40, 20, 15, 25}
	for i := range spans {
		if spans[i].Parent != wantParent[i] || self[i] != wantSelf[i] {
			t.Errorf("span %d %s: parent %d self %d, want parent %d self %d",
				spans[i].ID, spans[i].Name, spans[i].Parent, self[i], wantParent[i], wantSelf[i])
		}
	}
	if spans[7].Counts["cache_hit"] != 1 || spans[9].Counts["cache_hit"] != 0 {
		t.Errorf("cache_hit: request 2 %v, request 3 %v", spans[7].Counts, spans[9].Counts)
	}
}
