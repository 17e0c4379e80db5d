package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveProc is a running `nncell serve` child with its banner parsed.
type serveProc struct {
	cmd     *exec.Cmd
	baseURL string
	lines   chan string
}

// startServe launches the binary with `serve` + args and waits for the
// "serving on" banner (which the command prints only after the index is
// loaded, the WAL replayed, and readiness flipped).
func startServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(binPath, append([]string{"serve"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	sc := bufio.NewScanner(stdout)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(15 * time.Second)
	var baseURL string
	for baseURL == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("serve exited before printing its address")
			}
			if i := strings.Index(line, "serving on "); i >= 0 {
				baseURL = strings.TrimSpace(line[i+len("serving on "):])
			}
		case <-deadline:
			t.Fatal("timed out waiting for serve banner")
		}
	}
	return &serveProc{cmd: cmd, baseURL: baseURL, lines: lines}
}

func (p *serveProc) post(t *testing.T, path string, body interface{}, out interface{}) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.baseURL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d\n%s", path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: %v\n%s", path, err, data)
		}
	}
}

func (p *serveProc) get(t *testing.T, path string, out interface{}) {
	t.Helper()
	resp, err := http.Get(p.baseURL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("GET %s: %v\n%s", path, err, data)
	}
}

type healthzResponse struct {
	Status   string `json:"status"`
	Points   int    `json:"points"`
	Recovery *struct {
		Applied uint64 `json:"applied"`
		Stale   uint64 `json:"stale"`
	} `json:"recovery"`
}

// TestServeWALRecovery is the whole durability story end to end, for both
// the single index and the sharded one: serve with a WAL, mutate over HTTP,
// SIGKILL the process (no shutdown path runs), restart with the same flags,
// and observe every acknowledged mutation — and nothing else — come back.
func TestServeWALRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")
			args := []string{"-addr", "127.0.0.1:0", "-n", "60", "-d", "3", "-seed", "5",
				"-shards", fmt.Sprint(shards), "-wal-dir", walDir, "-fsync", "always"}

			p := startServe(t, args...)
			var before healthzResponse
			p.get(t, "/healthz", &before)

			// Three inserts and one delete, all acknowledged over HTTP.
			targets := [][]float64{
				{0.123456, 0.654321, 0.111111},
				{0.222222, 0.333333, 0.444444},
				{0.987654, 0.456789, 0.777777},
			}
			ids := make([]int, len(targets))
			for i, pt := range targets {
				var ins struct {
					ID int `json:"id"`
				}
				p.post(t, "/v1/insert", map[string]interface{}{"point": pt}, &ins)
				ids[i] = ins.ID
			}
			p.post(t, "/v1/delete", map[string]int{"id": ids[1]}, nil)

			// Crash: no drain, no final snapshot, no WAL close.
			if err := p.cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			p.cmd.Wait()

			// Restart rebuilds the same synthetic index (same seed) and
			// replays the log over it.
			p2 := startServe(t, args...)
			var after healthzResponse
			p2.get(t, "/healthz", &after)
			if want := before.Points + len(targets) - 1; after.Points != want {
				t.Fatalf("recovered %d points, want %d", after.Points, want)
			}
			if after.Recovery == nil {
				t.Fatal("healthz has no recovery report after replay")
			}
			if want := uint64(len(targets) + 1); after.Recovery.Applied != want {
				t.Fatalf("replay applied %d records, want %d", after.Recovery.Applied, want)
			}

			// Surviving inserts answer exactly; the deleted one is gone.
			for i, pt := range targets {
				var nn struct {
					ID    int     `json:"id"`
					Dist2 float64 `json:"dist2"`
				}
				p2.post(t, "/v1/nn", map[string]interface{}{"point": pt}, &nn)
				if i == 1 {
					if nn.Dist2 == 0 {
						t.Fatalf("deleted point %v still present after recovery", pt)
					}
					continue
				}
				if nn.ID != ids[i] || nn.Dist2 != 0 {
					t.Fatalf("point %v recovered as id %d dist2 %v, want id %d dist2 0",
						pt, nn.ID, nn.Dist2, ids[i])
				}
			}

			// And the recovered process shuts down cleanly.
			if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			for range p2.lines {
			}
			if err := p2.cmd.Wait(); err != nil {
				t.Fatalf("recovered serve exited uncleanly: %v", err)
			}
		})
	}
}

// A loaded snapshot's recorded geometry wins over build flags — and when
// the operator EXPLICITLY asks for a conflicting -d or -shards, serve must
// refuse to start rather than silently serve something else.
func TestServeLoadConflictFlags(t *testing.T) {
	idx := filepath.Join(t.TempDir(), "idx.bin")
	if out, err := run(t, "-n", "50", "-d", "3", "-queries", "0", "-save", idx); err != nil {
		t.Fatalf("build+save: %v\n%s", err, out)
	}

	out, err := run(t, "serve", "-addr", "127.0.0.1:0", "-load", idx, "-d", "7")
	if err == nil {
		t.Fatalf("serve with conflicting -d started anyway:\n%s", out)
	}
	if !strings.Contains(out, "conflicts with the snapshot's dimensionality 3") {
		t.Errorf("no dimensionality-conflict error:\n%s", out)
	}

	out, err = run(t, "serve", "-addr", "127.0.0.1:0", "-load", idx, "-shards", "4")
	if err == nil {
		t.Fatalf("serve with conflicting -shards started anyway:\n%s", out)
	}
	if !strings.Contains(out, "-shards 4 conflicts with the snapshot's 1 shards") {
		t.Errorf("no shard-conflict error:\n%s", out)
	}
}

// TestServeSavedIndexAsOneShard: the file `nncell -save` writes (one bare
// index, NNCELLv2) is served as the one shard of a sharded index — ids
// unchanged, the WAL under shard-0000/, every snapshot the server writes in the
// sharded format — and the whole durability and replication story runs on it:
// insert, SIGKILL, replay, follower bootstrap, snapshot, reload.
func TestServeSavedIndexAsOneShard(t *testing.T) {
	dir := t.TempDir()
	idx, walDir, snap := filepath.Join(dir, "idx.bin"), filepath.Join(dir, "wal"), filepath.Join(dir, "snap.bin")
	if out, err := run(t, "-n", "60", "-d", "3", "-queries", "0", "-save", idx); err != nil {
		t.Fatalf("build+save: %v\n%s", err, out)
	}
	args := []string{"-addr", "127.0.0.1:0", "-load", idx, "-wal-dir", walDir, "-fsync", "always",
		"-snapshot", snap, "-snapshot-every", "1h"}

	p := startServe(t, args...)
	targets := [][]float64{{0.123456, 0.654321, 0.111111}, {0.987654, 0.456789, 0.777777}}
	for i, pt := range targets {
		var ins struct {
			ID int `json:"id"`
		}
		p.post(t, "/v1/insert", map[string]interface{}{"point": pt}, &ins)
		if ins.ID != 60+i {
			t.Fatalf("insert %d got id %d, want %d: one shard keeps the saved index's ids", i, ins.ID, 60+i)
		}
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	if segs, _ := filepath.Glob(filepath.Join(walDir, "shard-0000", "wal-*.log")); len(segs) == 0 {
		t.Fatal("no log segments under wal/shard-0000")
	}
	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log")); len(segs) != 0 {
		t.Fatalf("log segments at the root of -wal-dir: %v", segs)
	}

	p2 := startServe(t, args...)
	var h healthzResponse
	p2.get(t, "/healthz", &h)
	if h.Points != 62 || h.Recovery == nil || h.Recovery.Applied != 2 {
		t.Fatalf("after kill -9: healthz %+v, want 62 points and 2 applied records", h)
	}

	// A follower bootstraps from the one-shard snapshot and answers alike.
	fol := &proc{name: "follower", bin: binPath, addr: freeAddr(t), log: filepath.Join(dir, "follower.log")}
	fol.args = []string{"serve", "-addr", fol.addr, "-follow", p2.baseURL}
	fol.start(t)
	fol.waitReady(t, 20*time.Second)
	for i, pt := range targets {
		ans, code, err := postNN(http.DefaultClient, fol.url(), pt)
		if err != nil || code != http.StatusOK || ans.ID != 60+i || ans.Dist2 != 0 {
			t.Fatalf("follower nn %v = %+v, code %d, err %v; want id %d at distance 0", pt, ans, code, err, 60+i)
		}
	}
	fol.kill9(t)

	// The shutdown snapshot is the sharded format, and serves again.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for range p2.lines {
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("serve exited uncleanly: %v", err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil || !bytes.HasPrefix(raw, []byte("NNSHRDv2")) {
		t.Fatalf("snapshot starts %q (err %v), want NNSHRDv2", raw[:min(8, len(raw))], err)
	}
	p3 := startServe(t, "-addr", "127.0.0.1:0", "-load", snap, "-wal-dir", walDir)
	p3.get(t, "/healthz", &h)
	if h.Points != 62 {
		t.Fatalf("reloaded snapshot serves %d points, want 62", h.Points)
	}
}

// A -wal-dir with segment files at its root is a single-index server's log.
// No shard directory replays it, so serve must stop and name the files rather
// than come up without the writes they hold.
func TestServeRefusesRootLevelWAL(t *testing.T) {
	walDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(walDir, "wal-000000001.log"), []byte("NNWALv1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "serve", "-addr", "127.0.0.1:0", "-n", "20", "-d", "2", "-wal-dir", walDir)
	if err == nil {
		t.Fatalf("serve started over a root-level log:\n%s", out)
	}
	if !strings.Contains(out, "wal-000000001.log") || !strings.Contains(out, "shard-0000") {
		t.Errorf("error names neither the segment nor where a one-shard index reads it:\n%s", out)
	}
}

// The default serve index is one shard under NN-Direction: /metrics has the
// shard series and nothing of the page simulator, and the page-defined
// algorithms, which are Build's and the figures', are refused.
func TestServeDefaults(t *testing.T) {
	p := startServe(t, "-addr", "127.0.0.1:0", "-n", "300", "-d", "4")
	for i := 0; i < 5; i++ {
		x := 0.05 + 0.17*float64(i)
		p.post(t, "/v1/insert", map[string]interface{}{"point": []float64{x, 1 - x, x / 2, 0.5}}, nil)
	}
	resp, err := http.Get(p.baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `nncell_shard_points{shard="0"} 305`; !bytes.Contains(metrics, []byte(want)) {
		t.Errorf("/metrics missing %q", want)
	}
	if bytes.Contains(metrics, []byte("nncell_pager_")) {
		t.Error("/metrics carries a pager series: a served index reads no page")
	}

	for _, alg := range []string{"sphere", "point"} {
		out, err := run(t, "serve", "-addr", "127.0.0.1:0", "-n", "20", "-d", "2", "-alg", alg)
		if err == nil || !strings.Contains(out, "correct|nndir") {
			t.Errorf("serve -alg %s: err %v, want a refusal naming correct|nndir:\n%s", alg, err, out)
		}
	}
}

// Flags that configure a primary's build or durability say so under -follow
// instead of being dropped without a word.
func TestFollowRejectsPrimaryFlags(t *testing.T) {
	for _, flag := range [][]string{{"-seed", "3"}, {"-fsync", "always"}, {"-fsync-interval", "1s"}, {"-snapshot-every", "1s"}} {
		out, err := run(t, append([]string{"serve", "-addr", "127.0.0.1:0", "-follow", "http://127.0.0.1:1"}, flag...)...)
		if err == nil || !strings.Contains(out, flag[0]+" does not apply with -follow") {
			t.Errorf("%v under -follow: err %v\n%s", flag, err, out)
		}
	}
}

// A sharded v1 snapshot (a format with no writer and, now, no loader) must
// stop `serve -load` with the loader's error, not a panic.
func TestServeLoadRejectsV1Snapshot(t *testing.T) {
	old := filepath.Join(t.TempDir(), "v1.bin")
	if err := os.WriteFile(old, append([]byte("NNSHRDv1"), 2, 0, 0, 0, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "serve", "-addr", "127.0.0.1:0", "-load", old)
	if err == nil {
		t.Fatalf("serve started from a v1 snapshot:\n%s", out)
	}
	if !strings.Contains(out, "bad magic") || strings.Contains(out, "panic") {
		t.Errorf("want a bad-magic error and no panic:\n%s", out)
	}
}

// TestServeLoadRejectsDecomposedSnapshot: an index stores one rectangle per
// cell, so a saved stream whose decompose slot says otherwise (what an index
// with decomposed cells wrote) is refused by name, not served and not a panic.
func TestServeLoadRejectsDecomposedSnapshot(t *testing.T) {
	dir := t.TempDir()
	idx := filepath.Join(dir, "idx.bin")
	if out, err := run(t, "-n", "40", "-d", "3", "-alg", "correct", "-queries", "0", "-save", idx); err != nil {
		t.Fatalf("build+save: %v\n%s", err, out)
	}
	b, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[20:], 2) // the decompose slot, after magic, dim, flags and algorithm
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[8:len(b)-4]))
	if err := os.WriteFile(idx, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "serve", "-addr", "127.0.0.1:0", "-load", idx)
	if err == nil {
		t.Fatalf("serve started from a decomposed snapshot:\n%s", out)
	}
	if !strings.Contains(out, "decompose slot") || strings.Contains(out, "panic") {
		t.Errorf("want the decompose-slot error and no panic:\n%s", out)
	}
}
