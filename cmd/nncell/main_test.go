package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/nncell"
)

// The tests in this file exercise the built binary end to end: the classic
// build/query path with -load -verify, and the serve subcommand's full
// lifecycle (start, query, scrape /metrics, SIGTERM, drained exit).

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nncell-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "nncell")
	out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building nncell: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(binPath, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// TestLoadVerifyUsesLoadedPoints is the regression test for the verification
// ground-truth bug class: a -load run given build flags describing a
// completely different dataset must still verify against the loaded index's
// own points — and must say loudly that the build flags were ignored.
func TestLoadVerifyUsesLoadedPoints(t *testing.T) {
	idx := filepath.Join(t.TempDir(), "idx.bin")
	out, err := run(t, "-n", "80", "-d", "3", "-data", "clustered", "-seed", "9",
		"-queries", "5", "-save", idx)
	if err != nil {
		t.Fatalf("build+save: %v\n%s", err, out)
	}

	// Deliberately conflicting build flags: different n, d, dataset, seed.
	// Pre-hardening, pairing a freshly generated ground truth with the loaded
	// index would make verification compare against the wrong points.
	out, err = run(t, "-load", idx, "-verify",
		"-n", "999", "-d", "7", "-data", "uniform", "-seed", "4", "-queries", "50")
	if err != nil {
		t.Fatalf("load+verify: %v\n%s", err, out)
	}
	if !strings.Contains(out, "verification: every answer matched") {
		t.Errorf("verification did not pass:\n%s", out)
	}
	if !strings.Contains(out, "ignored with -load") {
		t.Errorf("no loud note about ignored build flags:\n%s", out)
	}
	if !strings.Contains(out, "d=3") || strings.Contains(out, "d=7") {
		t.Errorf("loaded index dimensionality not in effect:\n%s", out)
	}
}

// TestServeSmoke drives the serve subcommand through its whole lifecycle:
// build a tiny index, serve it, answer a query, scrape /metrics, then SIGTERM
// and assert a clean, drained exit. This is the Makefile smoke gate in test
// form.
func TestServeSmoke(t *testing.T) {
	idx := filepath.Join(t.TempDir(), "idx.bin")
	if out, err := run(t, "-n", "60", "-d", "3", "-queries", "0", "-save", idx); err != nil {
		t.Fatalf("build+save: %v\n%s", err, out)
	}

	cmd := exec.Command(binPath, "serve", "-addr", "127.0.0.1:0", "-load", idx)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The serve banner carries the resolved port; everything after it is
	// collected for the shutdown assertions.
	sc := bufio.NewScanner(stdout)
	var baseURL string
	deadline := time.After(15 * time.Second)
	lineCh := make(chan string)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	var banner strings.Builder
	for baseURL == "" {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("serve exited before printing its address")
			}
			banner.WriteString(line + "\n")
			if i := strings.Index(line, "serving on "); i >= 0 {
				baseURL = strings.TrimSpace(line[i+len("serving on "):])
			}
		case <-deadline:
			t.Fatal("timed out waiting for serve banner")
		}
	}
	// The load line names the kernels the process runs, as /metrics does.
	kernels := nncell.KernelSet()
	if !strings.Contains(banner.String(), ", "+kernels+" kernels) from ") {
		t.Errorf("load line does not name the %s kernels:\n%s", kernels, banner.String())
	}

	get := func(path string) string {
		resp, err := http.Get(baseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	var health struct {
		Status string `json:"status"`
		Points int    `json:"points"`
		Dim    int    `json:"dim"`
	}
	if err := json.Unmarshal([]byte(get("/healthz")), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Status != "ok" || health.Points != 60 || health.Dim != 3 {
		t.Errorf("healthz = %+v, want ok/60/3", health)
	}

	var nn struct {
		ID    int     `json:"id"`
		Dist2 float64 `json:"dist2"`
	}
	if err := json.Unmarshal([]byte(get("/v1/nn?point=0.5,0.5,0.5")), &nn); err != nil {
		t.Fatalf("nn: %v", err)
	}
	if nn.ID < 0 || nn.Dist2 < 0 {
		t.Errorf("nn = %+v", nn)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`nncell_http_requests_total{endpoint="nn",code="2xx"} 1`,
		"nncell_http_request_duration_seconds_bucket",
		"nncell_index_points 60",
		`nncell_kernel_info{set="` + kernels + `"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail strings.Builder
	for line := range lineCh {
		tail.WriteString(line)
		tail.WriteString("\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exited uncleanly: %v\n%s", err, tail.String())
	}
	if !strings.Contains(tail.String(), "shutdown complete") {
		t.Errorf("no drained-shutdown message:\n%s", tail.String())
	}
}

// Empty-bootstrap + grid-routing smoke: `serve -n 0 -shards -route grid`
// must come up with zero points, accept routed inserts, answer queries, and
// expose the routing policy and shards-visited histogram on /metrics.
func TestServeGridEmptyBootstrap(t *testing.T) {
	cmd := exec.Command(binPath, "serve", "-addr", "127.0.0.1:0",
		"-n", "0", "-d", "3", "-shards", "8", "-route", "grid")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	var baseURL string
	deadline := time.After(15 * time.Second)
	lineCh := make(chan string)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	var banner strings.Builder
	for baseURL == "" {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("serve exited before printing its address:\n%s", banner.String())
			}
			banner.WriteString(line)
			banner.WriteString("\n")
			if i := strings.Index(line, "serving on "); i >= 0 {
				baseURL = strings.TrimSpace(line[i+len("serving on "):])
			}
		case <-deadline:
			t.Fatal("timed out waiting for serve banner")
		}
	}
	if !strings.Contains(banner.String(), "bootstrapped empty index (d=3, 8 grid-routed shards)") {
		t.Errorf("no empty-bootstrap banner:\n%s", banner.String())
	}

	post := func(path, body string) string {
		resp, err := http.Post(baseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d\n%s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	get := func(path string) string {
		resp, err := http.Get(baseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, b)
		}
		return string(b)
	}

	post("/v1/insert", `{"point":[0.2,0.4,0.6]}`)
	post("/v1/insert", `{"point":[0.8,0.1,0.3]}`)

	var nn struct {
		ID    int     `json:"id"`
		Dist2 float64 `json:"dist2"`
	}
	if err := json.Unmarshal([]byte(get("/v1/nn?point=0.21,0.41,0.61")), &nn); err != nil {
		t.Fatalf("nn: %v", err)
	}
	if nn.Dist2 > 0.01 {
		t.Errorf("nn = %+v, want the freshly inserted neighbor", nn)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`nncell_route_info{policy="grid"} 1`,
		"nncell_query_shards_visited_count 1",
		"nncell_index_points 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail strings.Builder
	for line := range lineCh {
		tail.WriteString(line)
		tail.WriteString("\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exited uncleanly: %v\n%s", err, tail.String())
	}
	if !strings.Contains(tail.String(), "shutdown complete") {
		t.Errorf("no drained-shutdown message:\n%s", tail.String())
	}
}
