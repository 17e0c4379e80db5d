package loadgen

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

// indexTarget adapts a live nncell.Index to the Target interface.
type indexTarget struct {
	ix      *nncell.Index
	queries atomic.Uint64
	inserts atomic.Uint64
}

func (t *indexTarget) Query(q vec.Point) error {
	t.queries.Add(1)
	_, err := t.ix.NearestNeighbor(q)
	return err
}

func (t *indexTarget) Insert(p vec.Point) error {
	t.inserts.Add(1)
	_, err := t.ix.Insert(p)
	return err
}

func buildIndex(tb testing.TB, n, d int) *nncell.Index {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	ix, err := nncell.Build(pts, vec.UnitCube(d), pager.New(pager.Config{CachePages: 64}), nncell.Options{Algorithm: nncell.Sphere})
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	return ix
}

func TestRunAccounting(t *testing.T) {
	ix := buildIndex(t, 200, 4)
	tgt := &indexTarget{ix: ix}
	rep, err := Run(tgt, Config{
		QPS:      2000,
		Duration: 250 * time.Millisecond,
		Dim:      4,
		PoolSize: 64,
		Seed:     1,
		ChurnQPS: 200,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Sent == 0 {
		t.Fatal("no queries sent")
	}
	if rep.Sent != rep.Completed {
		t.Fatalf("sent %d != completed %d", rep.Sent, rep.Completed)
	}
	if got := tgt.queries.Load(); got != rep.Sent {
		t.Fatalf("target saw %d queries, report says %d sent", got, rep.Sent)
	}
	if rep.Errors != 0 {
		t.Fatalf("unexpected query errors: %d", rep.Errors)
	}
	if rep.ChurnSent == 0 {
		t.Fatal("churn enabled but no inserts sent")
	}
	if got := tgt.inserts.Load(); got != rep.ChurnSent {
		t.Fatalf("target saw %d inserts, report says %d", got, rep.ChurnSent)
	}
	if rep.ChurnErrors != 0 {
		t.Fatalf("unexpected churn errors: %d", rep.ChurnErrors)
	}
	if rep.ServiceP50Micros <= 0 || rep.OnsetP50Micros <= 0 {
		t.Fatalf("empty latency quantiles: service p50=%v onset p50=%v",
			rep.ServiceP50Micros, rep.OnsetP50Micros)
	}
	// Onset latency includes scheduling delay, so it can never undercut
	// service latency at the same quantile (each onset sample dominates the
	// service sample of the same query).
	if rep.OnsetP50Micros < rep.ServiceP50Micros {
		t.Fatalf("onset p50 %v < service p50 %v", rep.OnsetP50Micros, rep.ServiceP50Micros)
	}
}

// slowTarget blocks every query until released, forcing arrivals past the
// outstanding cap to be shed rather than queued.
type slowTarget struct {
	release chan struct{}
}

func (t *slowTarget) Query(vec.Point) error {
	<-t.release
	return nil
}

func (t *slowTarget) Insert(vec.Point) error { return fmt.Errorf("read-only") }

func TestRunShedsAtOutstandingCap(t *testing.T) {
	tgt := &slowTarget{release: make(chan struct{})}
	done := make(chan struct{})
	var rep Report
	var err error
	go func() {
		defer close(done)
		rep, err = Run(tgt, Config{
			QPS:            1000,
			Duration:       200 * time.Millisecond,
			Dim:            2,
			MaxOutstanding: 4,
			PoolSize:       8,
			Seed:           2,
		})
	}()
	// Let the schedule finish (all slots stuck, remainder shed), then
	// release the stuck queries so Run can drain and return.
	time.Sleep(300 * time.Millisecond)
	close(tgt.release)
	<-done
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Sent != 4 {
		t.Fatalf("sent %d, want exactly the outstanding cap of 4", rep.Sent)
	}
	if rep.Shed == 0 {
		t.Fatal("expected shed arrivals at the outstanding cap")
	}
	if rep.Completed != rep.Sent {
		t.Fatalf("completed %d != sent %d", rep.Completed, rep.Sent)
	}
}

// The reported quantiles are sample values, not histogram bucket edges: a
// run where every query takes 300 µs reports 300 µs (a power-of-two
// histogram reports the 524 µs edge above it).
func TestPercentileNearestRank(t *testing.T) {
	flat := make([]time.Duration, 1000)
	for i := range flat {
		flat[i] = 300 * time.Microsecond
	}
	ramp := make([]time.Duration, 100) // 1, 2, …, 100 µs
	for i := range ramp {
		ramp[i] = time.Duration(i+1) * time.Microsecond
	}
	for _, tc := range []struct {
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		{flat, 0.5, 300 * time.Microsecond},
		{flat, 0.99, 300 * time.Microsecond},
		{ramp, 0, 1 * time.Microsecond},
		{ramp, 0.5, 50 * time.Microsecond},
		{ramp, 0.99, 99 * time.Microsecond},
		{ramp, 1, 100 * time.Microsecond},
		{ramp[:1], 0.5, 1 * time.Microsecond},
		{nil, 0.5, 0},
	} {
		if got := percentile(tc.samples, tc.p); got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(tc.samples), tc.p, got, tc.want)
		}
	}
	if got := mean(ramp); got != 50500*time.Nanosecond {
		t.Errorf("mean(1..100 µs) = %v, want 50.5µs", got)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ix := buildIndex(t, 10, 2)
	tgt := &indexTarget{ix: ix}
	for _, cfg := range []Config{
		{QPS: 0, Duration: time.Second, Dim: 2},
		{QPS: 100, Duration: 0, Dim: 2},
		{QPS: 100, Duration: time.Second, Dim: 0},
	} {
		if _, err := Run(tgt, cfg); err == nil {
			t.Fatalf("config %+v: expected error", cfg)
		}
	}
	if _, err := Run(nil, Config{QPS: 1, Duration: time.Second, Dim: 2}); err == nil {
		t.Fatal("nil target: expected error")
	}
}
