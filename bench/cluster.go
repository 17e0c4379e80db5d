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
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/replica"
)

// proc is one child process of a wire workload.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	addr    string
	started time.Time
	done    chan struct{} // closed once the process has been reaped
}

// children lists every process the benchmark started, so that each way out
// of the program (return, signal, watchdog) can kill and reap them all.
var children struct {
	mu    sync.Mutex
	procs []*proc
}

// startProc starts bin in a process group of its own (a terminal's interrupt
// reaches the bench alone, which then stops its children itself), with its
// output in logPath.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p := &proc{name: name, cmd: cmd, logPath: logPath, started: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	children.mu.Lock()
	children.procs = append(children.procs, p)
	children.mu.Unlock()
	return p, nil
}

// stop kills the process and waits until it has been reaped. The nodes'
// state is scratch, so there is nothing a graceful shutdown would save.
func (p *proc) stop() {
	p.cmd.Process.Kill()
	<-p.done
}

func killChildren() {
	children.mu.Lock()
	procs := children.procs
	children.procs = nil
	children.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

var bannerRE = regexp.MustCompile(`(?:listening|serving) on (?:http://)?(127\.0\.0\.1:\d+)`)

// waitAddr reads the address the process bound from its banner.
func (p *proc) waitAddr(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		raw, _ := os.ReadFile(p.logPath)
		if m := bannerRE.FindSubmatch(raw); m != nil {
			p.addr = string(m[1])
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before printing its address:\n%s", p.name, raw)
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s printed no address within %v (log %s)", p.name, timeout, p.logPath)
}

func (p *proc) url() string { return "http://" + p.addr }

// control is the HTTP client for everything that is not load: readiness
// polls, metric scrapes, visibility polls, the final check.
var control = &http.Client{Timeout: 10 * time.Second}

// waitHealthy polls /healthz until it answers 200 and ok(body) holds.
func (p *proc) waitHealthy(timeout time.Duration, ok func(body []byte) bool) error {
	deadline := time.Now().Add(timeout)
	last := "no reply"
	for time.Now().Before(deadline) {
		resp, err := control.Get(p.url() + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		} else {
			last = err.Error()
		}
		select {
		case <-p.done:
			raw, _ := os.ReadFile(p.logPath)
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, raw)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within %v: %s", p.name, timeout, last)
}

// rssMB returns the process's resident set size in MB (10^6 bytes).
func (p *proc) rssMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", p.cmd.Process.Pid)
}

// buildBinaries compiles the served programs into outDir/bin and returns how
// long the toolchain took.
func buildBinaries(p params) (seconds float64, err error) {
	bin := filepath.Join(p.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/nncell", "./cmd/nnrouter")
	cmd.Dir = p.repoDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/nncell ./cmd/nnrouter: %w\n%s", err, out)
	}
	return time.Since(t0).Seconds(), nil
}

// cluster is the real serving topology as separate OS processes: a primary
// with a WAL, two followers tailing it, and the read router in front.
type cluster struct {
	primary    *proc
	followers  []*proc
	router     *proc
	bootstrapS float64 // follower exec until its /healthz is 200
}

func (c *cluster) close() {
	for _, p := range append([]*proc{c.router, c.primary}, c.followers...) {
		if p != nil {
			p.stop()
		}
	}
}

// nodes returns the index-serving processes by name.
func (c *cluster) nodes() map[string]*proc {
	m := map[string]*proc{"primary": c.primary}
	for i, f := range c.followers {
		m[fmt.Sprintf("follower%d", i+1)] = f
	}
	return m
}

const readyTimeout = 60 * time.Second

// startCluster serves the snapshot from a fresh cluster under dir and returns
// once every node answers /healthz with 200 and the router has seen both
// followers healthy.
func startCluster(p params, snapshot, dir string) (c *cluster, err error) {
	bin := filepath.Join(p.outDir, "bin")
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.primary, err = startProc("primary", filepath.Join(bin, "nncell"), []string{
		"serve", "-load", snapshot, "-wal-dir", filepath.Join(dir, "wal"), "-fsync", "interval", "-addr", "127.0.0.1:0",
	}, filepath.Join(dir, "primary.log"))
	if err != nil {
		return c, err
	}
	if err = c.primary.waitAddr(readyTimeout); err != nil {
		return c, err
	}
	if err = c.primary.waitHealthy(readyTimeout, nil); err != nil {
		return c, err
	}
	for i := 1; i <= 2; i++ {
		f, err := startProc(fmt.Sprintf("follower%d", i), filepath.Join(bin, "nncell"), []string{
			"serve", "-follow", c.primary.url(), "-addr", "127.0.0.1:0",
		}, filepath.Join(dir, fmt.Sprintf("follower%d.log", i)))
		if err != nil {
			return c, err
		}
		c.followers = append(c.followers, f)
	}
	var urls []string
	for _, f := range c.followers {
		if err = f.waitAddr(readyTimeout); err != nil {
			return c, err
		}
		if err = f.waitHealthy(readyTimeout, nil); err != nil {
			return c, err
		}
		c.bootstrapS = max(c.bootstrapS, time.Since(f.started).Seconds())
		urls = append(urls, f.url())
	}
	c.router, err = startProc("router", filepath.Join(bin, "nnrouter"), []string{
		"-listen", "127.0.0.1:0", "-primary", c.primary.url(), "-followers", strings.Join(urls, ","),
	}, filepath.Join(dir, "router.log"))
	if err != nil {
		return c, err
	}
	if err = c.router.waitAddr(readyTimeout); err != nil {
		return c, err
	}
	err = c.router.waitHealthy(readyTimeout, func(body []byte) bool {
		st, err := parseRouterStats(body)
		return err == nil && st.HealthyFollowers == len(c.followers)
	})
	return c, err
}

func parseRouterStats(healthz []byte) (replica.RouterStats, error) {
	var out struct {
		Stats replica.RouterStats `json:"stats"`
	}
	err := json.Unmarshal(healthz, &out)
	return out.Stats, err
}

// routerStats reads the router's counters from its /healthz.
func (c *cluster) routerStats() (replica.RouterStats, error) {
	resp, err := control.Get(c.router.url() + "/healthz")
	if err != nil {
		return replica.RouterStats{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return replica.RouterStats{}, err
	}
	return parseRouterStats(body)
}

// scrape reads a node's /metrics into series → value. A series is keyed as
// printed, labels included.
func scrape(base string) (map[string]float64, error) {
	resp, err := control.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// scrapeSum scrapes several nodes and adds their series up.
func scrapeSum(nodes ...*proc) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range nodes {
		m, err := scrape(n.url())
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", n.name, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// waitCaughtUp waits until both followers report zero replication lag. Only
// the fsynced prefix of the primary's log ships, so it first lets one fsync
// interval pass for the last acknowledged write to become shippable.
func (c *cluster) waitCaughtUp(timeout time.Duration) error {
	time.Sleep(250 * time.Millisecond)
	deadline := time.Now().Add(timeout)
	for {
		behind := ""
		for _, f := range c.followers {
			m, err := scrape(f.url())
			if err != nil {
				return err
			}
			if lag := m["nncell_repl_lag_records"]; lag != 0 {
				behind = fmt.Sprintf("%s is %v records behind", f.name, lag)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers did not catch up within %v: %s", timeout, behind)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
