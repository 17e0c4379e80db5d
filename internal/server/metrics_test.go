package server

import (
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/iofault"
	"repro/internal/nncell"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/vec"
	"repro/internal/wal"
)

// maskSamples replaces every sample value of a text exposition with N and
// the kernel-set label with the word it stands for, leaving the lines a
// scraper keys on: HELP and TYPE, series names, labels and their order.
func maskSamples(text string) string {
	kernel := regexp.MustCompile(`set="[a-z0-9]+"`)
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
			line = line[:sp] + " N"
		}
		lines[i] = kernel.ReplaceAllString(line, `set="KERNELS"`)
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden scrapes /metrics from a fixed state that reaches every
// section of the exposition — a two-shard grid-routed index with WALs, a
// recovery report, a follower, five inserts, a few reads and one snapshot —
// and compares it, values masked, line for line with testdata: a renamed,
// reordered or relabelled series fails here.
func TestMetricsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := dataset.Deduplicate(dataset.Uniform(rng, 80, testDim))
	sx, err := shard.Build(pts, vec.UnitCube(testDim), shard.Options{
		Shards: 2,
		Route:  shard.RouteGrid,
		Index:  nncell.Options{Algorithm: nncell.NNDirection},
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := iofault.NewMem()
	if err := sx.OpenWALs("wal", wal.Options{FS: mem}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sx.Close() })
	s := New(sx, Config{
		SnapshotPath: "snap.bin",
		FS:           mem,
		Follower: &fakeFollower{st: replica.Stats{
			Bootstrapped: true,
			Bootstraps:   1,
			Positions:    []replica.LogPosition{{Log: 0, Segment: 1, Offset: 8}, {Log: 1, Segment: 1, Offset: 8}},
		}},
	})
	s.SetRecovery(RecoveryInfo{WALDir: "wal", Stats: nncell.RecoveryStats{
		ReplayStats: wal.ReplayStats{Segments: 2, Duration: time.Millisecond},
	}})
	ts := newHTTPServer(t, s)

	for i := 0; i < 5; i++ {
		p := vec.Point{0.1 + 0.2*float64(i), 0.05, 0.9 - 0.15*float64(i)}
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/insert", queryRequest{Point: p}); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/nn", queryRequest{Point: vec.Point{0.3 * float64(i), 0.5, 0.5}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("nn %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if err := s.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "testdata/metrics.golden", maskSamples(readAll(t, resp)))
}

// compareGolden fails, naming the first differing line, unless got equals
// the golden file line for line.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < max(len(want), len(lines)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(lines) {
			g = lines[i]
		}
		if w != g {
			t.Fatalf("%s line %d:\n got %q\nwant %q\nfull masked output:\n%s", path, i+1, g, w, got)
		}
	}
}
