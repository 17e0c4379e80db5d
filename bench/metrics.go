package main

import (
	"fmt"
	"io"
)

// metricDef names one metric. BENCHMARK.json carries the same lists; a test
// keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// notApplicable is the value a workload prints for a per-layer metric of a
// layer it does not cross (the contract wants every name on every workload).
// README.md lists which workloads measure which metric.
const notApplicable = -1

// endToEnd are the metrics a user of the system sees. Every workload measures
// every one of them. fail_ratio and wrong_answers of the issue are the
// `failed`/`attempted` and `correct` fields of the result line: the contract
// wants metrics that are never 0, and on correct code those two always are.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.15},
	{"nn_p50_us", "us", "lower", 0.25},
	{"knn10_p50_us", "us", "lower", 0.25},
}

// perLayer are the metrics of single layers, named <module>.<metric>. Four
// numbers a client sees are here and not above: the two write-path latencies,
// because only the mixed workloads write, and the tail latency and the
// closed-loop throughput on all cores, because on a shared two-core sandbox
// each moved by 30-50 % between identical runs in one hour or another
// (README.md) and the contract allows no bound above 25 %.
var perLayer = []metricDef{
	{"nn_p99_us", "us", "lower", 0},
	{"nn_qps", "1/s", "higher", 0},
	{"write_mean_ms", "ms", "lower", 0},
	{"repl_visible_p50_ms", "ms", "lower", 0},
	{"churn.nn_p50_us", "us", "lower", 0},
	{"churn.nn_p99_us", "us", "lower", 0},
	{"churn.nn_qps", "1/s", "higher", 0},

	{"nncell.candidates_per_query", "count", "lower", 0},
	{"nncell.candidates_p50_us", "us", "lower", 0},
	{"nncell.refine_self_us", "us", "lower", 0},
	{"nncell.allocs_per_nn", "count", "lower", 0},
	{"nncell.fallbacks", "count", "lower", 0},
	{"nncell.build_s", "s", "lower", 0},
	{"nncell.build_lp_solves", "count", "lower", 0},
	{"nncell.build_lp_pivots", "count", "lower", 0},
	{"nncell.fragments", "count", "lower", 0},
	{"nncell.save_s", "s", "lower", 0},
	{"nncell.load_s", "s", "lower", 0},
	{"nncell.snapshot_bytes_per_point", "B", "lower", 0},
	{"nncell.insert_ack_p50_ms", "ms", "lower", 0},
	{"nncell.insert_ack_p90_ms", "ms", "lower", 0},
	{"nncell.insert_batch_ms_per_point", "ms", "lower", 0},
	{"nncell.delete_ack_p50_ms", "ms", "lower", 0},
	{"nncell.lp_solves_per_write", "count", "lower", 0},
	{"nncell.lp_pivots_per_write", "count", "lower", 0},
	{"nncell.stale_cells_highwater", "count", "lower", 0},
	{"nncell.repairs", "count", "lower", 0},
	{"nncell.repair_drain_s", "s", "lower", 0},

	{"xtree.cell_point_query_p50_us", "us", "lower", 0},
	{"xtree.height", "count", "lower", 0},
	{"xtree.supernodes", "count", "lower", 0},
	{"xtree.data_nn_p50_us", "us", "lower", 0},

	{"scan.nn_p50_us", "us", "lower", 0},
	{"scan.speedup", "ratio", "higher", 0},

	{"pager.accesses_per_query", "count", "lower", 0},
	{"pager.hit_ratio", "ratio", "higher", 0},

	{"lp.solve_p50_us", "us", "lower", 0},
	{"lp.pivots_per_solve", "count", "lower", 0},

	{"shard.visited_per_query", "count", "lower", 0},
	{"shard.s1_overhead_ratio", "ratio", "lower", 0},

	{"rescache.hit_ratio", "ratio", "higher", 0},
	{"rescache.invalidated_entries_per_write", "count", "lower", 0},
	{"rescache.fill_aborts", "count", "lower", 0},
	{"rescache.evictions", "count", "lower", 0},
	{"rescache.front_hit_p50_ns", "ns", "lower", 0},
	{"rescache.get_miss_ns", "ns", "lower", 0},
	{"rescache.put_ns", "ns", "lower", 0},
	{"rescache.invalidate_p50_us", "us", "lower", 0},

	{"wal.append_p50_us", "us", "lower", 0},
	{"wal.sync_p50_us", "us", "lower", 0},
	{"wal.bytes_per_point", "B", "lower", 0},
	{"wal.syncs_per_s", "1/s", "lower", 0},

	{"server.handler_nn_p50_us", "us", "lower", 0},
	{"server.direct_nn_p50_us", "us", "lower", 0},
	{"server.non200", "count", "lower", 0},
	{"server.shed", "count", "lower", 0},

	{"replica.router_hop_us", "us", "lower", 0},
	{"replica.hedges", "count", "lower", 0},
	{"replica.failovers", "count", "lower", 0},
	{"replica.shed_to_primary", "count", "lower", 0},
	{"replica.bootstrap_s", "s", "lower", 0},
	{"replica.lag_records_max", "count", "lower", 0},

	{"stats.observe_ns", "ns", "lower", 0},

	{"driver.sched_lag_p99_us", "us", "lower", 0},
	{"driver.shed", "count", "lower", 0},
	{"driver.go_build_s", "s", "lower", 0},
	{"driver.trace_overhead_ratio", "ratio", "lower", 0},

	{"trace.client.op.self_p50_us", "us", "lower", 0},
	{"trace.front.nn.self_p50_us", "us", "lower", 0},
	{"trace.index.nn.self_p50_us", "us", "lower", 0},
	{"trace.index.insert.self_p50_us", "us", "lower", 0},
	{"trace.index.insert_batch.self_p50_us", "us", "lower", 0},
	{"trace.index.delete.self_p50_us", "us", "lower", 0},
	{"trace.client.request.self_p50_us", "us", "lower", 0},
	{"trace.router.serve.self_p50_us", "us", "lower", 0},
	{"trace.server.serve.self_p50_us", "us", "lower", 0},
	{"trace.probe.candidates.self_p50_us", "us", "lower", 0},
}

// reading is one measured value with what stands behind it.
type reading struct {
	value float64
	n     int       // samples behind the value; 0 for a single measurement or a count
	est   *estimate // set when the value is the best of several windows
}

// report collects a run's readings by metric name.
type report struct {
	vals  map[string]reading
	notes []string // things a reader of the numbers must know (an invalid run, a skipped probe)
}

func newReport() *report { return &report{vals: map[string]reading{}} }

func (r *report) set(name string, v float64, n int) { r.vals[name] = reading{value: v, n: n} }

// setEst stores the best window of e, converted by scale (ns → µs is 1e-3).
func (r *report) setEst(name string, e estimate, scale float64) {
	e = e.scaled(scale)
	r.vals[name] = reading{value: e.best, n: e.n, est: &e}
}

func (r *report) get(name string) (float64, bool) {
	v, ok := r.vals[name]
	return v.value, ok
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the readings of defs by name, with unit and sample count and,
// where the value is the best of several windows, the median and worst window.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s", d.name, v.value, d.unit)
		if v.n > 0 {
			fmt.Fprintf(w, " n=%d", v.n)
		}
		if v.est != nil {
			fmt.Fprintf(w, " win_med=%.6g win_worst=%.6g windows=%d", v.est.med, v.est.worst, v.est.windows)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
