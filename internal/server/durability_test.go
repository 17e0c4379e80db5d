package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
)

// The server must come up BEFORE its index: liveness 200, readiness 503
// with the loading reason, query endpoints shedding — then flip to fully
// serving the moment SetIndex installs the recovered index.
func TestReadinessLifecycle(t *testing.T) {
	s := New(nil, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	if code, _ := get("/healthz/live"); code != http.StatusOK {
		t.Fatalf("liveness while loading = %d, want 200", code)
	}
	code, body := get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readiness while loading = %d, want 503: %s", code, body)
	}
	var loading struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &loading); err != nil {
		t.Fatal(err)
	}
	if loading.Status != "loading" || loading.Reason != "index not loaded" {
		t.Fatalf("loading healthz = %+v", loading)
	}

	s.SetNotReady("replaying wal")
	if _, body := get("/healthz"); !bytes.Contains(body, []byte("replaying wal")) {
		t.Fatalf("healthz does not carry the updated reason: %s", body)
	}

	// Query and mutation endpoints shed with the same reason.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: []float64{0.1, 0.2, 0.3}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while loading = %d, want 503: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("replaying wal")) {
		t.Fatalf("shed response does not carry the reason: %s", body)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/insert", queryRequest{Point: []float64{0.1, 0.2, 0.3}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert while loading = %d, want 503", resp.StatusCode)
	}

	// /metrics stays up throughout and reports not-ready.
	if code, body := get("/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("nncell_ready 0")) {
		t.Fatalf("metrics while loading: code %d, body %s", code, body)
	}

	ix, _ := buildTestIndex(t, 120)
	s.SetIndex(ix)
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("readiness after SetIndex = %d: %s", code, body)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: []float64{0.1, 0.2, 0.3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after SetIndex = %d: %s", resp.StatusCode, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("nncell_ready 1")) {
		t.Fatalf("metrics after SetIndex: code %d missing ready gauge: %s", code, body)
	}

	// SetNotReady must not un-ready a serving index.
	s.SetNotReady("bogus")
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("SetNotReady un-readied a serving index (code %d)", code)
	}
}

// Insert and delete over HTTP, visible to queries immediately, with the
// request-level error cases mapped to 400.
func TestMutationEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	client := ts.Client()

	target := []float64{0.111, 0.222, 0.333}
	resp, body := postJSON(t, client, ts.URL+"/v1/insert", queryRequest{Point: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	var ins struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatal(err)
	}

	// The inserted point is immediately the exact nearest neighbor of itself.
	resp, body = postJSON(t, client, ts.URL+"/v1/nn", queryRequest{Point: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nn status %d: %s", resp.StatusCode, body)
	}
	var nn nnResponse
	if err := json.Unmarshal(body, &nn); err != nil {
		t.Fatal(err)
	}
	if nn.ID != ins.ID || nn.Dist2 != 0 {
		t.Fatalf("nn after insert = id %d dist2 %v, want id %d dist2 0", nn.ID, nn.Dist2, ins.ID)
	}

	resp, body = postJSON(t, client, ts.URL+"/v1/delete", map[string]int{"id": ins.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/nn", queryRequest{Point: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nn after delete status %d: %s", resp.StatusCode, body)
	}
	var nn2 nnResponse
	if err := json.Unmarshal(body, &nn2); err != nil {
		t.Fatal(err)
	}
	if nn2.ID == ins.ID || nn2.Dist2 == 0 {
		t.Fatalf("deleted point still answers queries: %+v", nn2)
	}

	// Error cases.
	resp, _ = postJSON(t, client, ts.URL+"/v1/insert", queryRequest{Point: []float64{0.1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim insert = %d, want 400", resp.StatusCode)
	}
	respNaN, err := client.Post(ts.URL+"/v1/insert", "application/json",
		strings.NewReader(`{"point":[NaN,0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	respNaN.Body.Close()
	if respNaN.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN insert = %d, want 400", respNaN.StatusCode)
	}
	resp, _ = postJSON(t, client, ts.URL+"/v1/delete", map[string]string{"note": "no id"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete without id = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, client, ts.URL+"/v1/delete", map[string]int{"id": 1 << 30})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete of absent id = %d, want 400", resp.StatusCode)
	}
	resp2, err := client.Get(ts.URL + "/v1/insert")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET insert = %d, want 405", resp2.StatusCode)
	}

	// Second delete of the same id: the index reports it, 400 not 500.
	resp, _ = postJSON(t, client, ts.URL+"/v1/delete", map[string]int{"id": ins.ID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double delete = %d, want 400", resp.StatusCode)
	}
}

// A snapshot on a WAL-attached index must run the full compaction protocol
// — rotate, publish atomically (tmp+rename+parent fsync), truncate — and
// leave (snapshot, remaining log) sufficient to rebuild the live state.
func TestSnapshotCompactsWAL(t *testing.T) {
	_, pts := buildTestIndex(t, 60)
	opts := shard.Options{Shards: 1, Index: nncell.Options{Algorithm: nncell.Sphere}}
	ix, err := shard.Build(pts, vec.UnitCube(testDim), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := iofault.NewMem()
	if err := ix.OpenWALs("wal", wal.Options{FS: m, Policy: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if _, err := ix.Insert([]float64{0.9, 0.01 * float64(i+1), 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	s := New(ix, Config{SnapshotPath: "snap.bin", FS: m})
	dirSyncsBefore := m.DirSyncs()
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}

	st := ix.WALStats()
	if st.Rotations != 1 || st.Compactions != 1 {
		t.Fatalf("wal stats after snapshot: rotations %d compactions %d, want 1/1", st.Rotations, st.Compactions)
	}
	if m.DirSyncs() <= dirSyncsBefore {
		t.Fatal("snapshot rename was not followed by a parent directory fsync")
	}
	if s.m.snapshots.Load() != 1 {
		t.Fatalf("snapshot counter = %d", s.m.snapshots.Load())
	}

	// Mutations after the snapshot land in the new segment only.
	post := [][]float64{{0.91, 0.91, 0.91}, {0.92, 0.92, 0.92}, {0.93, 0.93, 0.93}}
	for _, p := range post {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	// "Restart": load the published snapshot, replay what the compacted log
	// kept. Exactly the post-snapshot mutations come back.
	raw, ok := m.Bytes("snap.bin")
	if !ok {
		t.Fatal("snapshot file missing from the fault filesystem")
	}
	rec, err := shard.Load(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rec.Recover(m, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Applied != uint64(len(post)) {
		t.Fatalf("recovery applied %d records, want %d (snapshot should cover the rest)", rs.Applied, len(post))
	}
	if rec.Len() != ix.Len() {
		t.Fatalf("recovered %d points, live index has %d", rec.Len(), ix.Len())
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// /metrics must carry the WAL counters for a durable index and the replay
// report once recovery ran; /healthz must echo the same recovery summary.
func TestWALMetricsAndRecoveryReport(t *testing.T) {
	ix, _ := buildTestIndex(t, 60)
	m := iofault.NewMem()
	wl, err := wal.Open("wal", wal.Options{FS: m, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ix.AttachWAL(wl)
	t.Cleanup(func() { wl.Close() })
	for i := 0; i < 4; i++ {
		if _, err := ix.Insert([]float64{0.8, 0.02 * float64(i+1), 0.4}); err != nil {
			t.Fatal(err)
		}
	}

	s := New(ix, Config{})
	s.SetRecovery(RecoveryInfo{
		SnapshotLoaded: true,
		WALDir:         "wal",
		Stats: nncell.RecoveryStats{
			ReplayStats: wal.ReplayStats{Segments: 2, Records: 7, TornSegments: 1, Duration: 42 * time.Millisecond},
			Applied:     5,
			Stale:       2,
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"nncell_ready 1",
		"nncell_wal_appends_total 4",
		"nncell_wal_fsyncs_total",
		"nncell_wal_failed 0",
		"nncell_wal_replayed_records_total 7",
		"nncell_wal_replay_applied_total 5",
		"nncell_wal_replay_stale_total 2",
		"nncell_wal_torn_segments 1",
		"nncell_recovery_duration_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status   string `json:"status"`
		Recovery *struct {
			SnapshotLoaded  bool   `json:"snapshot_loaded"`
			ReplayedRecords uint64 `json:"replayed_records"`
			Applied         uint64 `json:"applied"`
			Stale           uint64 `json:"stale"`
			TornSegments    int    `json:"torn_segments"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Recovery == nil {
		t.Fatalf("healthz = %+v", hz)
	}
	if !hz.Recovery.SnapshotLoaded || hz.Recovery.ReplayedRecords != 7 ||
		hz.Recovery.Applied != 5 || hz.Recovery.Stale != 2 || hz.Recovery.TornSegments != 1 {
		t.Fatalf("healthz recovery report = %+v", *hz.Recovery)
	}
}
