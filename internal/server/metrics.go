package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/nncell"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wal"
)

// endpointNames is the fixed metric label set; instrument() only ever passes
// these, so the map in metrics needs no lock for reads.
var endpointNames = []string{
	"index", "healthz", "healthz_live", "metrics",
	"nn", "knn", "candidates",
	"nn_batch", "knn_batch", "candidates_batch",
	"insert", "insert_batch", "delete",
	"repl",
}

type endpointMetrics struct {
	// codes counts responses by status class: 0=2xx, 1=4xx, 2=5xx.
	codes   [3]atomic.Uint64
	latency stats.Histogram
}

type metrics struct {
	inflight          atomic.Int64
	rejected          atomic.Uint64
	snapshots         atomic.Uint64
	snapshotErrs      atomic.Uint64
	lastSnapshotNanos atomic.Int64
	snapshotSeconds   stats.Histogram
	endpoints         map[string]*endpointMetrics
}

func newMetrics() *metrics {
	m := &metrics{endpoints: make(map[string]*endpointMetrics, len(endpointNames))}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointMetrics{}
	}
	return m
}

func (m *metrics) record(name string, code int, d time.Duration) {
	em := m.endpoints[name]
	if em == nil {
		return
	}
	cls := 0
	switch {
	case code >= 500:
		cls = 2
	case code >= 400:
		cls = 1
	}
	em.codes[cls].Add(1)
	em.latency.Observe(d)
}

var codeClasses = [3]string{"2xx", "4xx", "5xx"}

// Histogram exposition range: buckets below 2^9 ns fold into the first
// emitted edge (~1 µs) and everything above 2^30 ns (~1.07 s) falls through
// to +Inf, keeping the per-endpoint series count fixed and small while
// covering the whole plausible query-latency range.
const (
	histoMinBucket = 9
	histoMaxBucket = 30
)

// handleMetrics renders the observability surface in the Prometheus text
// exposition format: per-endpoint request counters and latency histograms
// and the index work counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, ix Index) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	names := make([]string, 0, len(s.m.endpoints))
	for name := range s.m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP nncell_http_requests_total HTTP requests by endpoint and status class.\n")
	fmt.Fprintf(w, "# TYPE nncell_http_requests_total counter\n")
	for _, name := range names {
		em := s.m.endpoints[name]
		for cls, label := range codeClasses {
			if n := em.codes[cls].Load(); n > 0 {
				fmt.Fprintf(w, "nncell_http_requests_total{endpoint=%q,code=%q} %d\n", name, label, n)
			}
		}
	}

	fmt.Fprintf(w, "# HELP nncell_http_request_duration_seconds Request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE nncell_http_request_duration_seconds histogram\n")
	for _, name := range names {
		em := s.m.endpoints[name]
		snap := em.latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		cum := uint64(0)
		i := 0
		for ; i <= histoMaxBucket; i++ {
			cum += snap.Buckets[i]
			if i < histoMinBucket {
				continue
			}
			le := float64(stats.BucketUpper(i)) / 1e9
			fmt.Fprintf(w, "nncell_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, fmt.Sprintf("%g", le), cum)
		}
		fmt.Fprintf(w, "nncell_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(w, "nncell_http_request_duration_seconds_sum{endpoint=%q} %g\n", name, snap.Sum.Seconds())
		fmt.Fprintf(w, "nncell_http_request_duration_seconds_count{endpoint=%q} %d\n", name, snap.Count)
	}

	fmt.Fprintf(w, "# HELP nncell_http_in_flight Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE nncell_http_in_flight gauge\n")
	fmt.Fprintf(w, "nncell_http_in_flight %d\n", s.m.inflight.Load())
	fmt.Fprintf(w, "# HELP nncell_http_rejected_total Requests shed by the admission limiter.\n")
	fmt.Fprintf(w, "# TYPE nncell_http_rejected_total counter\n")
	fmt.Fprintf(w, "nncell_http_rejected_total %d\n", s.m.rejected.Load())

	ready := 0
	if ix != nil {
		ready = 1
	}
	fmt.Fprintf(w, "# HELP nncell_ready Whether the index is loaded and serving (readiness).\n")
	fmt.Fprintf(w, "# TYPE nncell_ready gauge\n")
	fmt.Fprintf(w, "nncell_ready %d\n", ready)
	fmt.Fprintf(w, "# HELP nncell_kernel_info Directory-query kernels this process runs (label carries the set: avx2 or go).\n")
	fmt.Fprintf(w, "# TYPE nncell_kernel_info gauge\n")
	fmt.Fprintf(w, "nncell_kernel_info{set=%q} 1\n", nncell.KernelSet())
	s.writeRecoveryMetrics(w)
	s.writeReplMetrics(w)
	if ix == nil {
		// The index sections below need an index; during recovery the
		// surface stops here (plus whatever recovery progress exists).
		fmt.Fprintf(w, "# HELP nncell_uptime_seconds Process uptime.\n")
		fmt.Fprintf(w, "# TYPE nncell_uptime_seconds gauge\n")
		fmt.Fprintf(w, "nncell_uptime_seconds %g\n", time.Since(startTime).Seconds())
		return
	}

	ist := ix.Stats()
	fmt.Fprintf(w, "# HELP nncell_index_points Live points in the index.\n")
	fmt.Fprintf(w, "# TYPE nncell_index_points gauge\n")
	fmt.Fprintf(w, "nncell_index_points %d\n", ix.Len())
	fmt.Fprintf(w, "# HELP nncell_index_queries_total Queries answered by the index.\n")
	fmt.Fprintf(w, "# TYPE nncell_index_queries_total counter\n")
	fmt.Fprintf(w, "nncell_index_queries_total %d\n", ist.Queries)
	fmt.Fprintf(w, "# HELP nncell_index_candidates_total Candidate cells inspected.\n")
	fmt.Fprintf(w, "# TYPE nncell_index_candidates_total counter\n")
	fmt.Fprintf(w, "nncell_index_candidates_total %d\n", ist.Candidates)
	fmt.Fprintf(w, "# HELP nncell_index_fallbacks_total Exact-scan fallbacks taken.\n")
	fmt.Fprintf(w, "# TYPE nncell_index_fallbacks_total counter\n")
	fmt.Fprintf(w, "nncell_index_fallbacks_total %d\n", ist.Fallbacks)
	fmt.Fprintf(w, "# HELP nncell_index_updates_total Affected-cell recomputations from Insert/Delete.\n")
	fmt.Fprintf(w, "# TYPE nncell_index_updates_total counter\n")
	fmt.Fprintf(w, "nncell_index_updates_total %d\n", ist.Updates)
	fmt.Fprintf(w, "# HELP nncell_stale_cells Cells marked stale by lazy repair, still serving superset MBRs.\n")
	fmt.Fprintf(w, "# TYPE nncell_stale_cells gauge\n")
	fmt.Fprintf(w, "nncell_stale_cells %d\n", ist.StaleCells)
	fmt.Fprintf(w, "# HELP nncell_stale_cells_highwater Largest stale backlog lazy repair has reached since the process started.\n")
	fmt.Fprintf(w, "# TYPE nncell_stale_cells_highwater gauge\n")
	fmt.Fprintf(w, "nncell_stale_cells_highwater %d\n", ist.StaleCellsHighWater)
	fmt.Fprintf(w, "# HELP nncell_repairs_total Stale cells re-approximated and committed by the repair pool.\n")
	fmt.Fprintf(w, "# TYPE nncell_repairs_total counter\n")
	fmt.Fprintf(w, "nncell_repairs_total{result=\"ok\"} %d\n", ist.Repairs)
	fmt.Fprintf(w, "nncell_repairs_total{result=\"error\"} %d\n", ist.RepairFailures)

	// Per-shard breakdown when the served index is sharded: routing skew
	// and per-shard maintenance load are invisible in the aggregates above.
	if ss, ok := ix.(interface{ ShardStats() []shard.ShardStat }); ok {
		sts := ss.ShardStats()
		fmt.Fprintf(w, "# HELP nncell_shard_points Live points per shard.\n")
		fmt.Fprintf(w, "# TYPE nncell_shard_points gauge\n")
		for i, st := range sts {
			fmt.Fprintf(w, "nncell_shard_points{shard=\"%d\"} %d\n", i, st.Points)
		}
		fmt.Fprintf(w, "# HELP nncell_shard_queries_total Queries answered per shard.\n")
		fmt.Fprintf(w, "# TYPE nncell_shard_queries_total counter\n")
		for i, st := range sts {
			fmt.Fprintf(w, "nncell_shard_queries_total{shard=\"%d\"} %d\n", i, st.Queries)
		}
		fmt.Fprintf(w, "# HELP nncell_shard_updates_total Affected-cell recomputations per shard.\n")
		fmt.Fprintf(w, "# TYPE nncell_shard_updates_total counter\n")
		for i, st := range sts {
			fmt.Fprintf(w, "nncell_shard_updates_total{shard=\"%d\"} %d\n", i, st.Updates)
		}
	}

	// Shards-visited histogram when the served index routes queries: the
	// number this whole routing subsystem exists to shrink. Hash routing
	// pins it at S; grid routing should hold it to a small constant.
	if rs, ok := ix.(interface{ RouteStats() shard.RouteStats }); ok {
		st := rs.RouteStats()
		fmt.Fprintf(w, "# HELP nncell_route_info Active shard-routing policy (label carries the name).\n")
		fmt.Fprintf(w, "# TYPE nncell_route_info gauge\n")
		fmt.Fprintf(w, "nncell_route_info{policy=%q} 1\n", st.Kind)
		fmt.Fprintf(w, "# HELP nncell_query_shards_visited Shards probed per routed read query.\n")
		fmt.Fprintf(w, "# TYPE nncell_query_shards_visited histogram\n")
		cum := uint64(0)
		for i, n := range st.Hist {
			cum += n
			fmt.Fprintf(w, "nncell_query_shards_visited_bucket{le=\"%d\"} %d\n", 1<<i, cum)
		}
		fmt.Fprintf(w, "nncell_query_shards_visited_bucket{le=\"+Inf\"} %d\n", st.Queries)
		fmt.Fprintf(w, "nncell_query_shards_visited_sum %d\n", st.Visited)
		fmt.Fprintf(w, "nncell_query_shards_visited_count %d\n", st.Queries)
	}

	// WAL counters when the served index is durable. Both index flavours
	// expose WALStats; an all-zero Stats means no WAL is attached, in which
	// case the series are suppressed (absence = durability off).
	if ws, ok := ix.(interface{ WALStats() wal.Stats }); ok {
		st := ws.WALStats()
		if st != (wal.Stats{}) {
			fmt.Fprintf(w, "# HELP nncell_wal_appends_total Records appended to the write-ahead log.\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_appends_total counter\n")
			fmt.Fprintf(w, "nncell_wal_appends_total %d\n", st.Appends)
			fmt.Fprintf(w, "# HELP nncell_wal_appended_bytes_total Framed bytes appended to the log.\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_appended_bytes_total counter\n")
			fmt.Fprintf(w, "nncell_wal_appended_bytes_total %d\n", st.AppendedBytes)
			fmt.Fprintf(w, "# HELP nncell_wal_fsyncs_total Successful log fsyncs.\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_fsyncs_total counter\n")
			fmt.Fprintf(w, "nncell_wal_fsyncs_total %d\n", st.Syncs)
			fmt.Fprintf(w, "# HELP nncell_wal_fsync_failures_total Failed log fsyncs (each latches the log).\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_fsync_failures_total counter\n")
			fmt.Fprintf(w, "nncell_wal_fsync_failures_total %d\n", st.SyncFailures)
			fmt.Fprintf(w, "# HELP nncell_wal_rotations_total Segment rotations.\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_rotations_total counter\n")
			fmt.Fprintf(w, "nncell_wal_rotations_total %d\n", st.Rotations)
			fmt.Fprintf(w, "# HELP nncell_wal_compactions_total Log compactions (snapshot-driven truncations).\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_compactions_total counter\n")
			fmt.Fprintf(w, "nncell_wal_compactions_total %d\n", st.Compactions)
			failed := 0
			if st.Failed {
				failed = 1
			}
			fmt.Fprintf(w, "# HELP nncell_wal_failed Whether the log has latched its sticky failure state.\n")
			fmt.Fprintf(w, "# TYPE nncell_wal_failed gauge\n")
			fmt.Fprintf(w, "nncell_wal_failed %d\n", failed)
		}
	}

	fmt.Fprintf(w, "# HELP nncell_snapshots_total Periodic index snapshots written.\n")
	fmt.Fprintf(w, "# TYPE nncell_snapshots_total counter\n")
	fmt.Fprintf(w, "nncell_snapshots_total{result=\"ok\"} %d\n", s.m.snapshots.Load())
	fmt.Fprintf(w, "nncell_snapshots_total{result=\"error\"} %d\n", s.m.snapshotErrs.Load())
	if ns := s.m.lastSnapshotNanos.Load(); ns > 0 {
		fmt.Fprintf(w, "# HELP nncell_last_snapshot_timestamp_seconds Unix time of the last successful snapshot.\n")
		fmt.Fprintf(w, "# TYPE nncell_last_snapshot_timestamp_seconds gauge\n")
		fmt.Fprintf(w, "nncell_last_snapshot_timestamp_seconds %g\n", float64(ns)/1e9)
	}
	fmt.Fprintf(w, "# HELP nncell_uptime_seconds Process uptime.\n")
	fmt.Fprintf(w, "# TYPE nncell_uptime_seconds gauge\n")
	fmt.Fprintf(w, "nncell_uptime_seconds %g\n", time.Since(startTime).Seconds())
}

// writeReplMetrics emits the replication series when this server is a
// follower: lag gauges (the quantities the lag SLO is enforced over),
// bootstrap counters, and per-log apply positions. Emitted before the
// index sections so a still-bootstrapping follower already exports its
// progress. Absent series = not a follower.
func (s *Server) writeReplMetrics(w http.ResponseWriter) {
	f := s.cfg.Follower
	if f == nil {
		return
	}
	st := f.Stats()
	boot := 0
	if st.Bootstrapped {
		boot = 1
	}
	fmt.Fprintf(w, "# HELP nncell_repl_bootstrapped Whether a primary snapshot has been loaded and installed.\n")
	fmt.Fprintf(w, "# TYPE nncell_repl_bootstrapped gauge\n")
	fmt.Fprintf(w, "nncell_repl_bootstrapped %d\n", boot)
	fmt.Fprintf(w, "# HELP nncell_repl_bootstraps_total Snapshot loads (1 = initial; more = re-bootstraps).\n")
	fmt.Fprintf(w, "# TYPE nncell_repl_bootstraps_total counter\n")
	fmt.Fprintf(w, "nncell_repl_bootstraps_total %d\n", st.Bootstraps)
	fmt.Fprintf(w, "# HELP nncell_repl_lag_records Durable primary records not yet applied, summed over logs.\n")
	fmt.Fprintf(w, "# TYPE nncell_repl_lag_records gauge\n")
	fmt.Fprintf(w, "nncell_repl_lag_records %d\n", st.LagRecords)
	fmt.Fprintf(w, "# HELP nncell_repl_lag_seconds How long the follower has been behind (0 when caught up).\n")
	fmt.Fprintf(w, "# TYPE nncell_repl_lag_seconds gauge\n")
	fmt.Fprintf(w, "nncell_repl_lag_seconds %g\n", st.LagSeconds)
	if len(st.Positions) > 0 {
		fmt.Fprintf(w, "# HELP nncell_repl_apply_segment WAL segment the follower is applying, per log.\n")
		fmt.Fprintf(w, "# TYPE nncell_repl_apply_segment gauge\n")
		for _, p := range st.Positions {
			fmt.Fprintf(w, "nncell_repl_apply_segment{log=\"%d\"} %d\n", p.Log, p.Segment)
		}
		fmt.Fprintf(w, "# HELP nncell_repl_apply_offset Byte offset within that segment, per log.\n")
		fmt.Fprintf(w, "# TYPE nncell_repl_apply_offset gauge\n")
		for _, p := range st.Positions {
			fmt.Fprintf(w, "nncell_repl_apply_offset{log=\"%d\"} %d\n", p.Log, p.Offset)
		}
		fmt.Fprintf(w, "# HELP nncell_repl_applied_records_total Shipped records fed through the idempotent replay path, per log.\n")
		fmt.Fprintf(w, "# TYPE nncell_repl_applied_records_total counter\n")
		for _, p := range st.Positions {
			fmt.Fprintf(w, "nncell_repl_applied_records_total{log=\"%d\"} %d\n", p.Log, p.Processed)
		}
	}
}

// writeRecoveryMetrics emits the startup-recovery counters once SetRecovery
// has recorded them (both while loading, as progress, and after, as a
// permanent record of what the boot replayed).
func (s *Server) writeRecoveryMetrics(w http.ResponseWriter) {
	info := s.recoveryInfo()
	if info == nil {
		return
	}
	st := info.Stats
	fmt.Fprintf(w, "# HELP nncell_wal_replayed_records_total Log records replayed at startup.\n")
	fmt.Fprintf(w, "# TYPE nncell_wal_replayed_records_total counter\n")
	fmt.Fprintf(w, "nncell_wal_replayed_records_total %d\n", st.Records)
	fmt.Fprintf(w, "# HELP nncell_wal_replay_applied_total Replayed records that mutated the index.\n")
	fmt.Fprintf(w, "# TYPE nncell_wal_replay_applied_total counter\n")
	fmt.Fprintf(w, "nncell_wal_replay_applied_total %d\n", st.Applied)
	fmt.Fprintf(w, "# HELP nncell_wal_replay_stale_total Replayed records already covered by the snapshot.\n")
	fmt.Fprintf(w, "# TYPE nncell_wal_replay_stale_total counter\n")
	fmt.Fprintf(w, "nncell_wal_replay_stale_total %d\n", st.Stale)
	fmt.Fprintf(w, "# HELP nncell_wal_torn_segments Log segments that ended in a torn or corrupt tail.\n")
	fmt.Fprintf(w, "# TYPE nncell_wal_torn_segments gauge\n")
	fmt.Fprintf(w, "nncell_wal_torn_segments %d\n", st.TornSegments)
	fmt.Fprintf(w, "# HELP nncell_recovery_duration_seconds Wall-clock time of the startup WAL replay.\n")
	fmt.Fprintf(w, "# TYPE nncell_recovery_duration_seconds gauge\n")
	fmt.Fprintf(w, "nncell_recovery_duration_seconds %g\n", st.Duration.Seconds())
}
