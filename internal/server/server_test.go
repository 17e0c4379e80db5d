package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/vec"
)

const testDim = 3

func buildTestIndex(t testing.TB, n int) (*nncell.Index, []vec.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	pts, err := dataset.Generate(dataset.NameUniform, rng, n, testDim)
	if err != nil {
		t.Fatal(err)
	}
	pts = dataset.Deduplicate(pts)
	pg := pager.New(pager.Config{CachePages: 64})
	ix, err := nncell.Build(pts, vec.UnitCube(testDim), pg, nncell.Options{Algorithm: nncell.Sphere})
	if err != nil {
		t.Fatal(err)
	}
	return ix, pts
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, []vec.Point) {
	t.Helper()
	ix, pts := buildTestIndex(t, 150)
	s := New(ix, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, pts
}

func postJSON(t testing.TB, client *http.Client, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestNNEndpoint(t *testing.T) {
	_, ts, pts := newTestServer(t, Config{})
	oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		q := make(vec.Point, testDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got nnResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if _, want := oracle.Nearest(q); math.Abs(got.Dist2-want) > 1e-12 {
			t.Fatalf("trial %d: dist² %v, oracle %v", trial, got.Dist2, want)
		}
		if len(got.Point) != testDim {
			t.Fatalf("response point has %d coords", len(got.Point))
		}
	}

	// GET form with comma-separated coordinates.
	resp, err := ts.Client().Get(ts.URL + "/v1/nn?point=0.5,0.5,0.5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d", resp.StatusCode)
	}

	// Out-of-bounds queries take the exact fallback, still 200.
	resp2, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: []float64{2, 2, 2}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("out-of-bounds status %d: %s", resp2.StatusCode, body)
	}
}

func TestKNNEndpoint(t *testing.T) {
	_, ts, pts := newTestServer(t, Config{})
	q := vec.Point{0.3, 0.6, 0.2}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/knn", queryRequest{Point: q, K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got struct {
		Neighbors []neighborResponse `json:"neighbors"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbors) != 5 {
		t.Fatalf("got %d neighbors", len(got.Neighbors))
	}
	// Sorted by distance and exact against a scan.
	d2s := make([]float64, len(pts))
	for i, p := range pts {
		d2s[i] = (vec.Euclidean{}).Dist2(q, p)
	}
	for i, nb := range got.Neighbors {
		if i > 0 && nb.Dist2 < got.Neighbors[i-1].Dist2 {
			t.Fatalf("neighbors out of order at %d", i)
		}
		if math.Abs(d2s[nb.ID]-nb.Dist2) > 1e-12 {
			t.Fatalf("neighbor %d: dist² %v, direct %v", i, nb.Dist2, d2s[nb.ID])
		}
	}
}

func TestCandidatesEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/candidates", queryRequest{Point: []float64{0.4, 0.4, 0.4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got struct {
		IDs   []int `json:"ids"`
		Count int   `json:"count"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != len(got.IDs) || got.Count < 1 {
		t.Fatalf("candidates = %+v", got)
	}
}

func TestBatchEndpoints(t *testing.T) {
	_, ts, pts := newTestServer(t, Config{})
	oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
	rng := rand.New(rand.NewSource(73))
	points := make([][]float64, 40)
	for i := range points {
		q := make([]float64, testDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		points[i] = q
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn/batch", batchRequest{Points: points})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nn/batch status %d: %s", resp.StatusCode, body)
	}
	var nn struct {
		Results []neighborResponse `json:"results"`
	}
	if err := json.Unmarshal(body, &nn); err != nil {
		t.Fatal(err)
	}
	if len(nn.Results) != len(points) {
		t.Fatalf("nn/batch returned %d results", len(nn.Results))
	}
	for i, res := range nn.Results {
		if _, want := oracle.Nearest(vec.Point(points[i])); math.Abs(res.Dist2-want) > 1e-12 {
			t.Fatalf("batch item %d: dist² %v, oracle %v", i, res.Dist2, want)
		}
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/knn/batch", batchRequest{Points: points[:5], K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn/batch status %d: %s", resp.StatusCode, body)
	}
	var knn struct {
		Results [][]neighborResponse `json:"results"`
	}
	if err := json.Unmarshal(body, &knn); err != nil {
		t.Fatal(err)
	}
	if len(knn.Results) != 5 || len(knn.Results[0]) != 3 {
		t.Fatalf("knn/batch shape: %d × %d", len(knn.Results), len(knn.Results[0]))
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/candidates/batch", batchRequest{Points: points[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("candidates/batch status %d: %s", resp.StatusCode, body)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxBatch: 8, MaxK: 10, MaxBodyBytes: 512})
	client := ts.Client()

	check := func(name string, wantCode int, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status %d (want %d): %s", name, resp.StatusCode, wantCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", name, body)
		}
	}

	resp, body := postJSON(t, client, ts.URL+"/v1/nn", queryRequest{Point: []float64{0.1, 0.2}})
	check("wrong dim", http.StatusBadRequest, resp, body)

	resp, err := client.Get(ts.URL + "/v1/nn?point=NaN,0.2,0.3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("NaN coordinate", http.StatusBadRequest, resp, body)

	r2, err := client.Post(ts.URL+"/v1/nn", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r2.Body)
	r2.Body.Close()
	check("bad json", http.StatusBadRequest, r2, body)

	resp, body = postJSON(t, client, ts.URL+"/v1/knn", queryRequest{Point: []float64{0.1, 0.2, 0.3}, K: 99})
	check("k over limit", http.StatusBadRequest, resp, body)

	big := make([][]float64, 9)
	for i := range big {
		big[i] = []float64{0.1, 0.2, 0.3}
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/nn/batch", batchRequest{Points: big})
	check("batch over limit", http.StatusBadRequest, resp, body)

	// A body over MaxBodyBytes must be rejected with 413.
	hugePoint := make([]float64, 400)
	for i := range hugePoint {
		hugePoint[i] = 0.123456789
	}
	huge := batchRequest{Points: [][]float64{hugePoint}}
	resp, body = postJSON(t, client, ts.URL+"/v1/nn/batch", huge)
	check("body too large", http.StatusRequestEntityTooLarge, resp, body)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/nn", nil)
	r3, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r3.Body)
	r3.Body.Close()
	check("method not allowed", http.StatusMethodNotAllowed, r3, body)

	r4, err := client.Get(ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r4.Body)
	r4.Body.Close()
	check("unknown endpoint", http.StatusNotFound, r4, body)
}

func TestHealthz(t *testing.T) {
	_, ts, pts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		Status string `json:"status"`
		Points int    `json:"points"`
		Dim    int    `json:"dim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.Points != len(pts) || got.Dim != testDim {
		t.Fatalf("healthz = %+v", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	// Generate traffic so the histograms have content.
	for i := 0; i < 20; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: []float64{0.1, 0.5, 0.9}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup query failed: %s", body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`nncell_http_requests_total{endpoint="nn",code="2xx"} 20`,
		`nncell_http_request_duration_seconds_bucket{endpoint="nn",le="+Inf"} 20`,
		`nncell_http_request_duration_seconds_count{endpoint="nn"} 20`,
		"nncell_index_points 150",
		"nncell_index_queries_total",
		"nncell_http_in_flight",
		"nncell_index_fallbacks_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "nncell_pager_") {
		t.Error("metrics output carries a pager series: a served index reads no page")
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals the count.
	if strings.Count(text, `nncell_http_request_duration_seconds_bucket{endpoint="nn"`) < 3 {
		t.Error("expected multiple latency buckets for the nn endpoint")
	}
}

// The server's actual access pattern: many goroutines hammering all three
// query endpoints concurrently. Run under -race this also proves the pooled
// QueryCtx path is race-clean through the HTTP layer.
func TestConcurrentRequests(t *testing.T) {
	_, ts, pts := newTestServer(t, Config{})
	oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				q := make(vec.Point, testDim)
				for j := range q {
					q[j] = rng.Float64()
				}
				var path string
				switch i % 3 {
				case 0:
					path = "/v1/nn"
				case 1:
					path = "/v1/knn"
				default:
					path = "/v1/candidates"
				}
				raw, _ := json.Marshal(queryRequest{Point: q, K: 3})
				resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
					return
				}
				if path == "/v1/nn" {
					var got nnResponse
					if err := json.Unmarshal(body, &got); err != nil {
						errs <- err
						return
					}
					if _, want := oracle.Nearest(q); math.Abs(got.Dist2-want) > 1e-12 {
						errs <- fmt.Errorf("dist² %v, oracle %v", got.Dist2, want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// With MaxInFlight=1 and a request parked in the only slot, a second request
// must be shed with 503 once its admission wait hits the request timeout.
func TestLimiterShedsWhenSaturated(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxInFlight: 1, RequestTimeout: 100 * time.Millisecond})

	// Park a request in the slot: the handler acquires admission before it
	// reads the body, so holding the body open holds the slot.
	pr, pw := io.Pipe()
	slow, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/nn", pr)
	if err != nil {
		t.Fatal(err)
	}
	slow.Header.Set("Content-Type", "application/json")
	slowDone := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(slow)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request status %d", resp.StatusCode)
			}
		}
		slowDone <- err
	}()
	if _, err := pw.Write([]byte(`{"point":[0.1,`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the slow request claim the slot

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: []float64{0.1, 0.2, 0.3}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 from saturated server, got %d: %s", resp.StatusCode, body)
	}

	// Release the slot; the parked request must complete fine.
	if _, err := pw.Write([]byte(`0.2,0.3]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// Canceling Serve's context must drain the in-flight request (which finishes
// with 200) before Serve returns.
func TestGracefulShutdownDrains(t *testing.T) {
	ix, _ := buildTestIndex(t, 120)
	s := New(ix, Config{ShutdownGrace: 5 * time.Second})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx) }()

	base := "http://" + s.Addr()
	// An in-flight request blocked on its own body keeps the connection
	// active through shutdown.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/nn", pr)
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request status %d", resp.StatusCode)
			}
		}
		reqDone <- err
	}()
	if _, err := pw.Write([]byte(`{"point":[0.3,`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // request is now in the handler

	cancel() // begin graceful shutdown while the request is in flight

	// New connections are refused almost immediately...
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// ...but the in-flight request still completes.
	if _, err := pw.Write([]byte(`0.3,0.3]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func TestPeriodicSnapshot(t *testing.T) {
	ix, _ := buildTestIndex(t, 80)
	path := filepath.Join(t.TempDir(), "snap.bin")
	s := New(ix, Config{SnapshotPath: path, SnapshotEvery: 30 * time.Millisecond})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx) }()

	deadline := time.Now().Add(3 * time.Second)
	for s.m.snapshots.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	if s.m.snapshots.Load() == 0 {
		t.Fatal("no snapshot written")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := nncell.Load(f, pager.New(pager.Config{}))
	if err != nil {
		t.Fatalf("snapshot does not load: %v", err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("snapshot has %d points, index %d", loaded.Len(), ix.Len())
	}
}

// The serving layer must front a sharded index transparently: queries exact,
// /metrics carrying the per-shard breakdown the single index lacks.
func TestServeShardedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := dataset.Deduplicate(dataset.Uniform(rng, 160, testDim))
	sx, err := shard.Build(pts, vec.UnitCube(testDim), shard.Options{
		Shards: 4,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.Sphere},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sx, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	oracle := scan.New(pts, vec.Euclidean{}, pager.New(pager.Config{}))
	for trial := 0; trial < 25; trial++ {
		q := make(vec.Point, testDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", map[string]interface{}{"point": q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: status %d: %s", trial, resp.StatusCode, body)
		}
		var out struct {
			ID    int     `json:"id"`
			Dist2 float64 `json:"dist2"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		_, wantD2 := oracle.Nearest(q)
		if math.Abs(out.Dist2-wantD2) > 1e-12 {
			t.Fatalf("trial %d: dist2 %v, want %v", trial, out.Dist2, wantD2)
		}
		p, ok := sx.Point(out.ID)
		if !ok || (vec.Euclidean{}).Dist2(p, q) != out.Dist2 {
			t.Fatalf("trial %d: returned id %d does not resolve to the answer", trial, out.ID)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`nncell_shard_points{shard="0"}`,
		`nncell_shard_points{shard="3"}`,
		`nncell_shard_queries_total{shard="0"}`,
		"nncell_index_points 160",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
