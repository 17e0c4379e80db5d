package replica

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBackend is a scriptable cluster node: counts read/write hits, can be
// marked unready (503 healthz) or slow.
type fakeBackend struct {
	ts      *httptest.Server
	name    string
	ready   atomic.Bool
	delay   atomic.Int64 // ns applied to /v1 reads
	fail    atomic.Bool  // 500 on /v1 reads
	reads   atomic.Uint64
	writes  atomic.Uint64
	healthz atomic.Uint64
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	b := &fakeBackend{name: name}
	b.ready.Store(true)
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			b.healthz.Add(1)
			if !b.ready.Load() {
				http.Error(w, "lagging", http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, `{"status":"ok"}`)
		case isWritePath(r.URL.Path):
			b.writes.Add(1)
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"echo":`+strconv.Itoa(len(body))+`,"node":"`+b.name+`"}`)
		default:
			if d := b.delay.Load(); d > 0 {
				select {
				case <-time.After(time.Duration(d)):
				case <-r.Context().Done():
					return
				}
			}
			if b.fail.Load() {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			b.reads.Add(1)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"node":"`+b.name+`"}`)
		}
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func newTestRouter(t *testing.T, primary *fakeBackend, followers ...*fakeBackend) *Router {
	t.Helper()
	urls := make([]string, len(followers))
	for i, f := range followers {
		urls[i] = f.ts.URL
	}
	rt, err := NewRouter(RouterConfig{
		Primary:        primary.ts.URL,
		Followers:      urls,
		HealthInterval: 20 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
		HedgeAfter:     60 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	waitHealth(t, rt, countReady(followers))
	return rt
}

func countReady(fs []*fakeBackend) int {
	n := 0
	for _, f := range fs {
		if f.ready.Load() {
			n++
		}
	}
	return n
}

func waitHealth(t *testing.T, rt *Router, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Stats().HealthyFollowers == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("router never saw %d healthy followers: %+v", want, rt.Stats())
}

func doRead(t *testing.T, rt *Router) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/nn", strings.NewReader(`{"q":[0.5,0.5,0.5]}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("read status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// TestRouterRoundRobin spreads reads across healthy followers and keeps
// them off the primary.
func TestRouterRoundRobin(t *testing.T) {
	p := newFakeBackend(t, "primary")
	f1 := newFakeBackend(t, "f1")
	f2 := newFakeBackend(t, "f2")
	rt := newTestRouter(t, p, f1, f2)
	for i := 0; i < 20; i++ {
		doRead(t, rt)
	}
	if f1.reads.Load() == 0 || f2.reads.Load() == 0 {
		t.Fatalf("round robin skewed: f1=%d f2=%d", f1.reads.Load(), f2.reads.Load())
	}
	if p.reads.Load() != 0 {
		t.Fatalf("primary served %d reads with healthy followers up", p.reads.Load())
	}
}

// TestRouterWritesToPrimary: writes bypass the follower pool entirely.
func TestRouterWritesToPrimary(t *testing.T) {
	p := newFakeBackend(t, "primary")
	f1 := newFakeBackend(t, "f1")
	rt := newTestRouter(t, p, f1)
	req := httptest.NewRequest(http.MethodPost, "/v1/insert", strings.NewReader(`{"point":[0.1,0.2,0.3]}`))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("write status %d", rec.Code)
	}
	if p.writes.Load() != 1 || f1.writes.Load() != 0 {
		t.Fatalf("write landed wrong: primary=%d follower=%d", p.writes.Load(), f1.writes.Load())
	}
}

// TestRouterShedsToPrimaryWhenAllLagging: followers reporting unready
// (over the lag SLO) drop out of the pool; reads shed to the primary and
// return to the pool when a follower recovers.
func TestRouterShedsToPrimaryWhenAllLagging(t *testing.T) {
	p := newFakeBackend(t, "primary")
	f1 := newFakeBackend(t, "f1")
	rt := newTestRouter(t, p, f1)

	f1.ready.Store(false)
	waitHealth(t, rt, 0)
	if got := doRead(t, rt); !strings.Contains(got, "primary") {
		t.Fatalf("shed read answered by %s, want primary", got)
	}
	if rt.Stats().PrimaryReads == 0 {
		t.Fatal("primary fallback not counted")
	}

	f1.ready.Store(true)
	waitHealth(t, rt, 1)
	before := f1.reads.Load()
	doRead(t, rt)
	if f1.reads.Load() != before+1 {
		t.Fatal("recovered follower not back in rotation")
	}
}

// TestRouterHedgesSlowFollower: a read stuck on a slow follower is hedged
// to the second one and answers fast.
func TestRouterHedgesSlowFollower(t *testing.T) {
	p := newFakeBackend(t, "primary")
	slow := newFakeBackend(t, "slow")
	fast := newFakeBackend(t, "fast")
	slow.delay.Store(int64(2 * time.Second))
	rt := newTestRouter(t, p, slow, fast)

	// Run enough reads that round-robin starts some on the slow node.
	start := time.Now()
	for i := 0; i < 6; i++ {
		doRead(t, rt)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("hedging did not rescue slow reads: %v for 6 reads", elapsed)
	}
	if rt.Stats().Hedges == 0 {
		t.Fatal("no hedged reads counted")
	}
	if fast.reads.Load() < 6 {
		t.Fatalf("fast follower answered only %d of 6", fast.reads.Load())
	}
}

// TestRouterHedgeTimerPerRead: the hedge timer belongs to one read and stops
// with it. A burst of fast reads never hedges, however many timers it has
// armed; a read whose first attempt is slow still hedges, at HedgeAfter and
// not at the slow attempt's end.
func TestRouterHedgeTimerPerRead(t *testing.T) {
	p := newFakeBackend(t, "primary")
	a := newFakeBackend(t, "a")
	b := newFakeBackend(t, "b")
	rt := newTestRouter(t, p, a, b)
	for i := 0; i < 300; i++ {
		doRead(t, rt)
	}
	if h := rt.Stats().Hedges; h != 0 {
		t.Fatalf("%d hedges in a burst of fast reads", h)
	}

	a.delay.Store(int64(2 * time.Second))
	start := time.Now()
	doRead(t, rt) // round-robin starts one of the two on a
	doRead(t, rt)
	elapsed := time.Since(start)
	if h := rt.Stats().Hedges; h != 1 {
		t.Fatalf("%d hedges for one slow first attempt, want 1", h)
	}
	if elapsed < 60*time.Millisecond || elapsed > time.Second {
		t.Fatalf("the slow read took %v; hedged at HedgeAfter = 60ms it takes a little over that", elapsed)
	}
}

// TestRouterFailsOverOnError: a 500 from one follower retries on the next
// immediately; the client sees 200.
func TestRouterFailsOverOnError(t *testing.T) {
	p := newFakeBackend(t, "primary")
	bad := newFakeBackend(t, "bad")
	good := newFakeBackend(t, "good")
	bad.fail.Store(true)
	rt := newTestRouter(t, p, bad, good)
	for i := 0; i < 6; i++ {
		if got := doRead(t, rt); strings.Contains(got, "bad") {
			t.Fatalf("read %d answered by failing node: %s", i, got)
		}
	}
	if rt.Stats().Failovers == 0 {
		t.Fatal("no failovers counted")
	}
}

// TestRouterMetricsAndHealthz: the observability endpoints expose counters
// and per-follower health.
func TestRouterMetricsAndHealthz(t *testing.T) {
	p := newFakeBackend(t, "primary")
	f1 := newFakeBackend(t, "f1")
	rt := newTestRouter(t, p, f1)
	doRead(t, rt)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"nnrouter_reads_total 1", "nnrouter_follower_healthy", "nnrouter_writes_total 0"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if !strings.Contains(rec.Body.String(), `"healthy":true`) {
		t.Fatalf("healthz missing follower health:\n%s", rec.Body.String())
	}
}

// TestRouterMetricsGolden compares the router's /metrics, sample values and
// follower URLs masked, line for line with testdata: a renamed, reordered or
// relabelled series fails here.
func TestRouterMetricsGolden(t *testing.T) {
	p := newFakeBackend(t, "primary")
	rt := newTestRouter(t, p, newFakeBackend(t, "f1"), newFakeBackend(t, "f2"))
	doRead(t, rt)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	follower := regexp.MustCompile(`follower="[^"]*"`)
	var got strings.Builder
	for _, line := range strings.SplitAfter(rec.Body.String(), "\n") {
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:sp] + " N\n"
		}
		got.WriteString(follower.ReplaceAllString(line, `follower="URL"`))
	}
	want, err := os.ReadFile("testdata/router_metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("router /metrics, masked:\n%s\nwant:\n%s", got.String(), want)
	}
}
