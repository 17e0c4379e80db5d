// Command loadgen drives a running nncell server with an open-loop query
// schedule (see internal/loadgen): arrivals fire at the target rate
// regardless of completions, queries repeat over a Zipf-skewed hot pool,
// and optional insert churn writes to the index while it is read. The run
// report prints as text or JSON.
//
// Usage:
//
//	loadgen -addr localhost:8080 -qps 2000 -duration 10s -churn-qps 50 -json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/vec"
)

// httpTarget issues loadgen traffic over the server's JSON API.
type httpTarget struct {
	base   string
	client *http.Client
}

func (t *httpTarget) post(path string, q vec.Point) error {
	body, err := json.Marshal(struct {
		Point vec.Point `json:"point"`
	}{q})
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	// Drain so the connection is reused; latency includes the full body.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

func (t *httpTarget) Query(q vec.Point) error  { return t.post("/v1/nn", q) }
func (t *httpTarget) Insert(p vec.Point) error { return t.post("/v1/insert", p) }

// probeDim asks /healthz for the served dimensionality.
func probeDim(base string, client *http.Client) (int, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Dim    int    `json:"dim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("server not ready: status %q (HTTP %d)", h.Status, resp.StatusCode)
	}
	if h.Dim <= 0 {
		return 0, fmt.Errorf("healthz reported dim=%d", h.Dim)
	}
	return h.Dim, nil
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "server host:port")
		qps      = flag.Float64("qps", 1000, "target query arrival rate")
		duration = flag.Duration("duration", 10*time.Second, "run length")
		dim      = flag.Int("d", 0, "query dimensionality (0 = probe /healthz)")
		pool     = flag.Int("pool", 1024, "distinct query points in the hot pool")
		zipfS    = flag.Float64("zipf-s", 1.2, "Zipf skew (s > 1; larger = hotter hot-spots)")
		seed     = flag.Int64("seed", 1, "rng seed for pool, popularity, and churn")
		churnQPS = flag.Float64("churn-qps", 0, "insert arrival rate (0 = read-only)")
		maxOut   = flag.Int("max-outstanding", 512, "in-flight cap; arrivals beyond it are shed")
		asJSON   = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *maxOut + 16,
			MaxIdleConnsPerHost: *maxOut + 16,
		},
	}

	d := *dim
	if d <= 0 {
		var err error
		if d, err = probeDim(base, client); err != nil {
			fatalf("probing %s/healthz: %v", base, err)
		}
	}

	tgt := &httpTarget{base: base, client: client}
	rep, err := loadgen.Run(tgt, loadgen.Config{
		QPS:            *qps,
		Duration:       *duration,
		MaxOutstanding: *maxOut,
		Dim:            d,
		PoolSize:       *pool,
		ZipfS:          *zipfS,
		Seed:           *seed,
		ChurnQPS:       *churnQPS,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("%v", err)
		}
		return
	}

	fmt.Printf("loadgen: %s for %v at %.0f qps (pool %d, zipf s=%.2f, churn %.0f qps)\n",
		base, *duration, *qps, *pool, *zipfS, *churnQPS)
	fmt.Printf("  sent %d  completed %d  errors %d  shed %d  (achieved %.0f qps)\n",
		rep.Sent, rep.Completed, rep.Errors, rep.Shed, rep.AchievedQPS)
	fmt.Printf("  service latency: p50 %.0fus  p99 %.0fus  mean %.0fus\n",
		rep.ServiceP50Micros, rep.ServiceP99Micros, rep.ServiceMeanMicros)
	fmt.Printf("  open-loop latency: p50 %.0fus  p99 %.0fus\n",
		rep.OnsetP50Micros, rep.OnsetP99Micros)
	if rep.ChurnSent > 0 || rep.ChurnErrors > 0 {
		fmt.Printf("  churn: %d inserts, %d errors\n", rep.ChurnSent, rep.ChurnErrors)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
