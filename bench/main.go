// Command bench is the repository's benchmark: four seeded workloads (two
// against the library, two against the real multi-process cluster) whose every
// answer is checked against a scan oracle. See README.md.
//
//	bench/run.sh --workload lib-nn-d8 --seed 1 --seconds 12 --trace 0
//	bench/run.sh -all            # every workload, untraced then traced
//	bench/run.sh -repeat 3       # three full sets and the spread against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// params is what one run of one workload is given.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int    // client goroutines / keep-alive connections: the machine's CPU count
	smoke    bool   // test sizing: small n, short windows
	repoDir  string // the checkout's root, where cmd/nncell and cmd/nnrouter are built from
	outDir   string // bench/out: binaries, traces, temporary files
	tmpDir   string // per-run scratch under outDir, removed on exit
}

// probeWindows is the number of windows a layer probe or a traced phase gets.
func (p params) probeWindows() int {
	if p.smoke {
		return 1
	}
	return 3
}

// traceOps is the fixed number of reads of the traced pass.
func (p params) traceOps() int {
	if p.smoke {
		return 320
	}
	return 2000
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(p params, rep *report, tl *tally) error
}

var workloads = []workload{
	{"lib-nn-d8", "Refinement-bound: ~1200 candidates per query and no HTTP, cache, shard or WAL in the way, so candidate-set and query-kernel changes show in full. 24 slots of 0.5 s: 14 nn-1c, 10 knn10-1c.", runLibNN},
	{"lib-mixed-d4", "Same index layers used differently: 0.2 us reads behind the result cache, then a 4/s write list with lazy repair and WALs beside them. 8 quiet pairs of 0.5-s slots, 2 write periods of 2 s.", runLibMixed},
	{"wire-read-d8", "The lib-nn-d8 index behind the real cluster (router, 2 followers, primary): JSON, net/http, admission and the router hop are most of a request, the index <= 20%. 5 cycles: 2 s open-500, 0.5 s knn10.", runWireRead},
	{"wire-mixed-d4", "Write path end to end on a sharded d=4 cluster: JSON, LP re-solves under the shard lock, WAL, shipping, follower apply; read-kernel changes must not move it. 3 quiet read cycles, 2 write periods.", runWireMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// watchdog bounds one run: the contract allows 180 s, and a hung cluster must
// not outlive it.
const watchdog = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed of the data, the query pool and the write list")
		seconds = flag.Float64("seconds", 12, "seconds of timed windows per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, probes and the traced pass")
		all     = flag.Bool("all", false, "run every workload, untraced then traced")
		repeat  = flag.Int("repeat", 0, "run N full untraced sets and report each end-to-end metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	var err error
	switch {
	case *repeat > 0:
		err = repeatMode(*repeat, *seed, *seconds)
	case *all:
		err = allMode(*seed, *seconds)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace != 0)
	default:
		err = errors.New("give -workload <name>, -all or -repeat N")
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// locate finds the checkout's root: the directory above the one holding this
// program's go.mod, whether run from the root or from bench/.
func locate() (repoDir string, err error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find bench/go.mod from %s: run from the checkout's root", wd)
}

// result is the line the contract asks for.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once and prints its readings and the result line.
func runOne(name string, seed int64, seconds float64, trace bool) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	repoDir, err := locate()
	if err != nil {
		return err
	}
	p := params{
		workload: name, seed: seed, seconds: seconds, trace: trace,
		nproc:   runtime.NumCPU(),
		repoDir: repoDir, outDir: filepath.Join(repoDir, "bench", "out"),
	}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return err
	}
	if p.tmpDir, err = os.MkdirTemp(p.outDir, "run-"); err != nil {
		return err
	}
	// Children and scratch files go away on every way out: return, signal,
	// watchdog.
	cleanup := func() {
		killChildren()
		os.RemoveAll(p.tmpDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v, stopping\n", s)
		case <-time.After(watchdog):
			fmt.Fprintf(os.Stderr, "bench: run exceeded %v, stopping\n", watchdog)
		}
		cleanup()
		os.Exit(1)
	}()

	fmt.Printf("workload %s: %s\n", wl.name, wl.why)
	printStamp(p)
	rep := newReport()
	var tl tally
	if err := wl.run(p, rep, &tl); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	rep.print(os.Stdout, defs)
	fmt.Printf("  attempted %d, errors %d, wrong answers %d, shed %d\n", tl.attempted, tl.errors, tl.wrong, tl.shed)
	if tl.firstErr != nil {
		fmt.Printf("  first error: %v\n", tl.firstErr)
	}

	res := result{Correct: tl.wrong == 0, Attempted: tl.attempted, Failed: tl.failed(), Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := rep.get(d.name)
		if !ok {
			if !trace {
				return fmt.Errorf("%s did not measure %s", name, d.name)
			}
			v = notApplicable
		}
		res.Metrics[d.name] = metricJSON{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printStamp prints the environment a run's numbers belong to.
func printStamp(p params) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", p.repoDir, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("  env: commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q, seed %d, seconds %g, trace %v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), p.seed, p.seconds, p.trace)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
