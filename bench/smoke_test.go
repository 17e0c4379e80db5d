package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smoke runs one workload at test size and checks that it measured every
// metric of defs, correctly.
func smoke(t *testing.T, name string, trace bool, seconds float64) *report {
	t.Helper()
	wl, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	repoDir, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	p := params{
		workload: name, seed: 1, seconds: seconds, trace: trace, nproc: 2, smoke: true,
		repoDir: repoDir, outDir: t.TempDir(), tmpDir: t.TempDir(),
	}
	t.Cleanup(killChildren)
	rep := newReport()
	var tl tally
	if err := wl.run(p, rep, &tl); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if tl.attempted == 0 || tl.failed() != 0 {
		t.Errorf("%s: attempted %d, errors %d, wrong %d, shed %d (first error: %v; notes %v)",
			name, tl.attempted, tl.errors, tl.wrong, tl.shed, tl.firstErr, rep.notes)
	}
	if !trace {
		for _, d := range endToEnd {
			if v, ok := rep.get(d.name); !ok || v <= 0 {
				t.Errorf("%s: %s = %v, measured %v", name, d.name, v, ok)
			}
		}
		return rep
	}
	for _, n := range []string{"nncell.build_s", "lp.solve_p50_us", "driver.trace_overhead_ratio", "nncell.fallbacks"} {
		if _, ok := rep.get(n); !ok {
			t.Errorf("%s: traced run did not measure %s", name, n)
		}
	}
	if v, _ := rep.get("nncell.fallbacks"); v != 0 {
		t.Errorf("%s: %v in-bounds queries fell back to a scan", name, v)
	}
	raw, err := os.ReadFile(filepath.Join(p.outDir, "trace-"+name+".jsonl"))
	if err != nil || len(raw) == 0 {
		t.Errorf("%s: no span file: %v", name, err)
	}
	return rep
}

func TestSmokeLibNN(t *testing.T)    { smoke(t, "lib-nn-d8", false, 1.2) }
func TestSmokeLibMixed(t *testing.T) { smoke(t, "lib-mixed-d4", false, 1.2) }

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced passes run a dozen probes each")
	}
	rep := smoke(t, "lib-nn-d8", true, 1.2)
	for _, n := range []string{"nncell.candidates_per_query", "scan.speedup", "xtree.data_nn_p50_us", "trace.index.nn.self_p50_us"} {
		if _, ok := rep.get(n); !ok {
			t.Errorf("lib-nn-d8 did not measure %s", n)
		}
	}
	rep = smoke(t, "lib-mixed-d4", true, 1.2)
	for _, n := range []string{"write_mean_ms", "rescache.hit_ratio", "churn.nn_p50_us", "wal.sync_p50_us", "shard.s1_overhead_ratio", "trace.front.nn.self_p50_us", "trace.index.insert.self_p50_us"} {
		if _, ok := rep.get(n); !ok {
			t.Errorf("lib-mixed-d4 did not measure %s", n)
		}
	}
}

func TestSmokeWire(t *testing.T) {
	if testing.Short() {
		t.Skip("the wire workloads build two binaries and start eight processes")
	}
	smoke(t, "wire-read-d8", false, 3)
	smoke(t, "wire-mixed-d4", false, 6)
	rep := smoke(t, "wire-mixed-d4", true, 6)
	for _, n := range []string{"write_mean_ms", "repl_visible_p50_ms", "replica.bootstrap_s", "trace.router.serve.self_p50_us", "trace.server.serve.self_p50_us"} {
		if _, ok := rep.get(n); !ok {
			t.Errorf("wire-mixed-d4 did not measure %s", n)
		}
	}
}

// BENCHMARK.json is what the driver reads; the program's own tables are what
// it prints. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Seconds   int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}
}
