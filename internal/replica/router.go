package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Router is the stateless read-routing tier in front of a replicated
// cluster. Policy:
//
//   - Reads go to healthy followers, round-robin. Health is the follower's
//     own /healthz, which is lag-aware (a follower over the lag SLO answers
//     503), so shedding to the primary happens exactly when every follower
//     is down or too stale — the primary's read capacity is the reserve,
//     not the default.
//   - A read that has not answered within HedgeAfter is hedged to the next
//     candidate; first usable response wins. A failed attempt (connection
//     error or 5xx) fails over immediately. Queries are idempotent, so
//     hedging and retry are safe.
//   - Writes are forwarded to the primary, never hedged, never retried:
//     an insert ack assigns an id, and replaying it could ack twice.
//
// The router holds no index state; any number of them can run side by side.
type Router struct {
	cfg    RouterConfig
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	healthy []atomic.Bool // per follower
	rr      atomic.Uint64

	reads, writes, hedges, failovers, shed atomic.Uint64
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Primary is the primary's base URL (writes; read fallback).
	Primary string
	// Followers are the follower base URLs (read pool).
	Followers []string
	// Client issues proxied requests; default a plain http.Client (per-
	// request contexts carry the timeouts).
	Client *http.Client
	// HealthInterval is the follower health-poll cadence. Default 250ms.
	HealthInterval time.Duration
	// RequestTimeout bounds one proxied read attempt. Default 3s.
	RequestTimeout time.Duration
	// HedgeAfter launches a second attempt if the first has not answered
	// by then. Default 150ms.
	HedgeAfter time.Duration
	// Logf, if set, receives health transitions.
	Logf func(format string, args ...any)
}

func (c *RouterConfig) normalize() {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 3 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 150 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// maxProxyBody caps a buffered read-request body (hedging needs to replay
// it) and a proxied response body.
const maxProxyBody = 32 << 20

// NewRouter validates the config. Start begins health polling.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: router needs a primary URL")
	}
	if len(cfg.Followers) == 0 {
		return nil, errors.New("replica: router needs at least one follower URL")
	}
	cfg.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	return &Router{
		cfg: cfg, ctx: ctx, cancel: cancel,
		done:    make(chan struct{}),
		healthy: make([]atomic.Bool, len(cfg.Followers)),
	}, nil
}

// Start launches the health-poll loop.
func (rt *Router) Start() { go rt.healthLoop() }

// Stop halts health polling.
func (rt *Router) Stop() {
	rt.cancel()
	<-rt.done
}

func (rt *Router) healthLoop() {
	defer close(rt.done)
	rt.pollHealth() // immediate first pass so startup routing has data
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.pollHealth()
		}
	}
}

func (rt *Router) pollHealth() {
	var wg sync.WaitGroup
	for i, u := range rt.cfg.Followers {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			ok := rt.probe(u)
			if rt.healthy[i].Swap(ok) != ok {
				rt.cfg.Logf("router: follower %s healthy=%v", u, ok)
			}
		}(i, u)
	}
	wg.Wait()
}

// probe asks one follower's lag-aware readiness endpoint.
func (rt *Router) probe(base string) bool {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.HealthInterval*4)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// readTargets returns the attempt order: healthy followers rotated by the
// round-robin counter, then the primary as the shed-of-last-resort.
func (rt *Router) readTargets() []string {
	var up []string
	for i := range rt.healthy {
		if rt.healthy[i].Load() {
			up = append(up, rt.cfg.Followers[i])
		}
	}
	if len(up) > 1 {
		start := int(rt.rr.Add(1)) % len(up)
		up = append(up[start:], up[:start]...)
	}
	return append(up, rt.cfg.Primary)
}

// ServeHTTP routes: /v1 writes to the primary, other /v1 traffic to the
// follower pool, plus the router's own /healthz and /metrics.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		rt.serveHealthz(w)
	case r.URL.Path == "/metrics":
		rt.serveMetrics(w)
	case isWritePath(r.URL.Path):
		rt.proxyWrite(w, r)
	case strings.HasPrefix(r.URL.Path, "/v1/"):
		rt.proxyRead(w, r)
	default:
		http.NotFound(w, r)
	}
}

func isWritePath(p string) bool {
	switch p {
	case "/v1/insert", "/v1/insert/batch", "/v1/delete":
		return true
	}
	return false
}

// proxyWrite forwards one write to the primary, streaming the body. No
// retry: a timeout is indeterminate (the primary may have applied it) and
// inserts are not idempotent across re-sends.
func (rt *Router) proxyWrite(w http.ResponseWriter, r *http.Request) {
	rt.writes.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, rt.cfg.Primary+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf("primary unreachable: %v", err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp.StatusCode, resp.Header, io.LimitReader(resp.Body, maxProxyBody))
}

// attemptResult is one proxied read attempt's outcome.
type attemptResult struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// usable: the backend answered and did not fail server-side. 4xx passes
// through — it is the client's error, identical on every replica.
func (a attemptResult) usable() bool { return a.err == nil && a.status < 500 }

// proxyRead routes one read with hedging and failover across readTargets.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request) {
	rt.reads.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		http.Error(w, "reading request body", http.StatusBadRequest)
		return
	}
	targets := rt.readTargets()
	ctype := r.Header.Get("Content-Type")
	uri := r.URL.RequestURI()
	method := r.Method

	resc := make(chan attemptResult, len(targets))
	launched, pending := 0, 0
	launch := func() {
		if launched >= len(targets) {
			return
		}
		target := targets[launched]
		if target == rt.cfg.Primary {
			rt.shed.Add(1)
		}
		launched++
		pending++
		go func() {
			ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
			defer cancel()
			resc <- rt.attempt(ctx, method, target+uri, ctype, body)
		}()
	}
	launch()
	var hedge <-chan time.Time
	if launched < len(targets) {
		// A timer stopped on return: before go 1.23 an expired-or-not
		// time.After stays live until it fires, one per routed read.
		timer := time.NewTimer(rt.cfg.HedgeAfter)
		defer timer.Stop()
		hedge = timer.C
	}
	var lastBad attemptResult
	for pending > 0 {
		select {
		case res := <-resc:
			pending--
			if res.usable() {
				copyResponse(w, res.status, res.header, bytes.NewReader(res.body))
				return
			}
			lastBad = res
			if launched < len(targets) {
				// Immediate failover: this target is broken, don't wait
				// for the hedge timer.
				rt.failovers.Add(1)
				launch()
			}
		case <-hedge:
			hedge = nil
			if launched < len(targets) {
				rt.hedges.Add(1)
				launch()
			}
		case <-r.Context().Done():
			return
		}
	}
	msg := "no backend answered"
	if lastBad.err != nil {
		msg = lastBad.err.Error()
	} else if lastBad.status != 0 {
		msg = fmt.Sprintf("all backends failed, last status %d", lastBad.status)
	}
	http.Error(w, msg, http.StatusBadGateway)
}

func (rt *Router) attempt(ctx context.Context, method, url, ctype string, body []byte) attemptResult {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return attemptResult{err: err}
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return attemptResult{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return attemptResult{err: err}
	}
	return attemptResult{status: resp.StatusCode, header: resp.Header, body: b}
}

func copyResponse(w http.ResponseWriter, status int, hdr http.Header, body io.Reader) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	io.Copy(w, body)
}

// RouterStats is a counter snapshot (also serialized on /healthz).
type RouterStats struct {
	Reads, Writes, Hedges, Failovers, PrimaryReads uint64
	HealthyFollowers                               int
}

// Stats snapshots the routing counters.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Reads: rt.reads.Load(), Writes: rt.writes.Load(),
		Hedges: rt.hedges.Load(), Failovers: rt.failovers.Load(),
		PrimaryReads: rt.shed.Load(),
	}
	for i := range rt.healthy {
		if rt.healthy[i].Load() {
			st.HealthyFollowers++
		}
	}
	return st
}

func (rt *Router) serveHealthz(w http.ResponseWriter) {
	type followerHealth struct {
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	out := struct {
		Status    string           `json:"status"`
		Primary   string           `json:"primary"`
		Followers []followerHealth `json:"followers"`
		Stats     RouterStats      `json:"stats"`
	}{Status: "ok", Primary: rt.cfg.Primary, Stats: rt.Stats()}
	for i, u := range rt.cfg.Followers {
		out.Followers = append(out.Followers, followerHealth{URL: u, Healthy: rt.healthy[i].Load()})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (rt *Router) serveMetrics(w http.ResponseWriter) {
	st := rt.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE nnrouter_reads_total counter\nnnrouter_reads_total %d\n", st.Reads)
	fmt.Fprintf(&b, "# TYPE nnrouter_writes_total counter\nnnrouter_writes_total %d\n", st.Writes)
	fmt.Fprintf(&b, "# TYPE nnrouter_hedged_reads_total counter\nnnrouter_hedged_reads_total %d\n", st.Hedges)
	fmt.Fprintf(&b, "# TYPE nnrouter_failovers_total counter\nnnrouter_failovers_total %d\n", st.Failovers)
	fmt.Fprintf(&b, "# TYPE nnrouter_primary_reads_total counter\nnnrouter_primary_reads_total %d\n", st.PrimaryReads)
	fmt.Fprintf(&b, "# TYPE nnrouter_follower_healthy gauge\n")
	idx := make([]int, len(rt.cfg.Followers))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rt.cfg.Followers[idx[a]] < rt.cfg.Followers[idx[b]] })
	for _, i := range idx {
		v := 0
		if rt.healthy[i].Load() {
			v = 1
		}
		fmt.Fprintf(&b, "nnrouter_follower_healthy{follower=%q} %d\n", rt.cfg.Followers[i], v)
	}
	io.WriteString(w, b.String())
}
