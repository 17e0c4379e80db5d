package server

import (
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/nncell"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wal"
)

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
	// endpoints is the metric label set: instrument enters each endpoint
	// while New builds the route table, so after New it is only read and
	// needs no lock.
	endpoints map[string]*endpointMetrics
}

func (em *endpointMetrics) record(code int, d time.Duration) {
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

	f := stats.NewFamily(w, "nncell_http_requests_total", "counter", "HTTP requests by endpoint and status class.")
	for _, name := range names {
		em := s.m.endpoints[name]
		for cls, label := range codeClasses {
			if n := em.codes[cls].Load(); n > 0 {
				f.Sample(n, "endpoint", name, "code", label)
			}
		}
	}

	f = stats.NewFamily(w, "nncell_http_request_duration_seconds", "histogram", "Request latency by endpoint.")
	for _, name := range names {
		snap := s.m.endpoints[name].latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		// Buckets below histoMinBucket fold into the first emitted edge.
		counts := snap.Buckets[histoMinBucket : histoMaxBucket+1]
		for _, n := range snap.Buckets[:histoMinBucket] {
			counts[0] += n
		}
		le := func(i int) float64 { return float64(stats.BucketUpper(histoMinBucket+i)) / 1e9 }
		f.Histogram(le, counts, snap.Sum.Seconds(), snap.Count, "endpoint", name)
	}

	stats.NewFamily(w, "nncell_http_in_flight", "gauge", "Requests currently being served.").Sample(s.m.inflight.Load())
	stats.NewFamily(w, "nncell_http_rejected_total", "counter", "Requests shed by the admission limiter.").Sample(s.m.rejected.Load())

	stats.NewFamily(w, "nncell_ready", "gauge", "Whether the index is loaded and serving (readiness).").Sample(ix != nil)
	stats.NewFamily(w, "nncell_kernel_info", "gauge", "Directory-query kernels this process runs (label carries the set: avx2 or go).").Sample(1, "set", nncell.KernelSet())
	s.writeRecoveryMetrics(w)
	s.writeReplMetrics(w)
	if ix == nil {
		// The index sections below need an index; during recovery the
		// surface stops here (plus whatever recovery progress exists).
		stats.NewFamily(w, "nncell_uptime_seconds", "gauge", "Process uptime.").Sample(time.Since(startTime).Seconds())
		return
	}

	ist := ix.Stats()
	stats.NewFamily(w, "nncell_index_points", "gauge", "Live points in the index.").Sample(ix.Len())
	stats.NewFamily(w, "nncell_index_queries_total", "counter", "Queries answered by the index.").Sample(ist.Queries)
	stats.NewFamily(w, "nncell_index_candidates_total", "counter", "Candidate cells inspected.").Sample(ist.Candidates)
	stats.NewFamily(w, "nncell_index_fallbacks_total", "counter", "Exact-scan fallbacks taken.").Sample(ist.Fallbacks)
	stats.NewFamily(w, "nncell_index_updates_total", "counter", "Affected-cell recomputations from Insert/Delete.").Sample(ist.Updates)
	stats.NewFamily(w, "nncell_stale_cells", "gauge", "Cells marked stale by lazy repair, still serving superset MBRs.").Sample(ist.StaleCells)
	stats.NewFamily(w, "nncell_stale_cells_highwater", "gauge", "Largest stale backlog lazy repair has reached since the process started.").Sample(ist.StaleCellsHighWater)
	f = stats.NewFamily(w, "nncell_repairs_total", "counter", "Stale cells re-approximated and committed by the repair pool.")
	f.Sample(ist.Repairs, "result", "ok")
	f.Sample(ist.RepairFailures, "result", "error")

	// Per-shard breakdown when the served index is sharded: routing skew
	// and per-shard maintenance load are invisible in the aggregates above.
	if ss, ok := ix.(interface{ ShardStats() []shard.ShardStat }); ok {
		sts := ss.ShardStats()
		f = stats.NewFamily(w, "nncell_shard_points", "gauge", "Live points per shard.")
		for i, st := range sts {
			f.Sample(st.Points, "shard", strconv.Itoa(i))
		}
		f = stats.NewFamily(w, "nncell_shard_queries_total", "counter", "Queries answered per shard.")
		for i, st := range sts {
			f.Sample(st.Queries, "shard", strconv.Itoa(i))
		}
		f = stats.NewFamily(w, "nncell_shard_updates_total", "counter", "Affected-cell recomputations per shard.")
		for i, st := range sts {
			f.Sample(st.Updates, "shard", strconv.Itoa(i))
		}
	}

	// Shards-visited histogram when the served index routes queries: the
	// number this whole routing subsystem exists to shrink. Hash routing
	// pins it at S; grid routing should hold it to a small constant.
	if rs, ok := ix.(interface{ RouteStats() shard.RouteStats }); ok {
		st := rs.RouteStats()
		stats.NewFamily(w, "nncell_route_info", "gauge", "Active shard-routing policy (label carries the name).").Sample(1, "policy", st.Kind.String())
		le := func(i int) float64 { return float64(int(1) << i) }
		stats.NewFamily(w, "nncell_query_shards_visited", "histogram", "Shards probed per routed read query.").
			Histogram(le, st.Hist[:], st.Visited, st.Queries)
	}

	// WAL counters when the served index is durable. Both index flavours
	// expose WALStats; an all-zero Stats means no WAL is attached, in which
	// case the series are suppressed (absence = durability off).
	if ws, ok := ix.(interface{ WALStats() wal.Stats }); ok {
		st := ws.WALStats()
		if st != (wal.Stats{}) {
			stats.NewFamily(w, "nncell_wal_appends_total", "counter", "Records appended to the write-ahead log.").Sample(st.Appends)
			stats.NewFamily(w, "nncell_wal_appended_bytes_total", "counter", "Framed bytes appended to the log.").Sample(st.AppendedBytes)
			stats.NewFamily(w, "nncell_wal_fsyncs_total", "counter", "Successful log fsyncs.").Sample(st.Syncs)
			stats.NewFamily(w, "nncell_wal_fsync_failures_total", "counter", "Failed log fsyncs (each latches the log).").Sample(st.SyncFailures)
			stats.NewFamily(w, "nncell_wal_rotations_total", "counter", "Segment rotations.").Sample(st.Rotations)
			stats.NewFamily(w, "nncell_wal_compactions_total", "counter", "Log compactions (snapshot-driven truncations).").Sample(st.Compactions)
			stats.NewFamily(w, "nncell_wal_failed", "gauge", "Whether the log has latched its sticky failure state.").Sample(st.Failed)
		}
	}

	f = stats.NewFamily(w, "nncell_snapshots_total", "counter", "Periodic index snapshots written.")
	f.Sample(s.m.snapshots.Load(), "result", "ok")
	f.Sample(s.m.snapshotErrs.Load(), "result", "error")
	if ns := s.m.lastSnapshotNanos.Load(); ns > 0 {
		stats.NewFamily(w, "nncell_last_snapshot_timestamp_seconds", "gauge", "Unix time of the last successful snapshot.").Sample(float64(ns) / 1e9)
	}
	stats.NewFamily(w, "nncell_uptime_seconds", "gauge", "Process uptime.").Sample(time.Since(startTime).Seconds())
}

// writeReplMetrics emits the replication series when this server is a
// follower: lag gauges (the quantities the lag SLO is enforced over),
// bootstrap counters, and per-log apply positions. Emitted before the
// index sections so a still-bootstrapping follower already exports its
// progress. Absent series = not a follower.
func (s *Server) writeReplMetrics(w http.ResponseWriter) {
	fol := s.cfg.Follower
	if fol == nil {
		return
	}
	st := fol.Stats()
	stats.NewFamily(w, "nncell_repl_bootstrapped", "gauge", "Whether a primary snapshot has been loaded and installed.").Sample(st.Bootstrapped)
	stats.NewFamily(w, "nncell_repl_bootstraps_total", "counter", "Snapshot loads (1 = initial; more = re-bootstraps).").Sample(st.Bootstraps)
	stats.NewFamily(w, "nncell_repl_lag_records", "gauge", "Durable primary records not yet applied, summed over logs.").Sample(st.LagRecords)
	stats.NewFamily(w, "nncell_repl_lag_seconds", "gauge", "How long the follower has been behind (0 when caught up).").Sample(st.LagSeconds)
	if len(st.Positions) > 0 {
		f := stats.NewFamily(w, "nncell_repl_apply_segment", "gauge", "WAL segment the follower is applying, per log.")
		for _, p := range st.Positions {
			f.Sample(p.Segment, "log", strconv.Itoa(p.Log))
		}
		f = stats.NewFamily(w, "nncell_repl_apply_offset", "gauge", "Byte offset within that segment, per log.")
		for _, p := range st.Positions {
			f.Sample(p.Offset, "log", strconv.Itoa(p.Log))
		}
		f = stats.NewFamily(w, "nncell_repl_applied_records_total", "counter", "Shipped records fed through the idempotent replay path, per log.")
		for _, p := range st.Positions {
			f.Sample(p.Processed, "log", strconv.Itoa(p.Log))
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
	stats.NewFamily(w, "nncell_wal_replayed_records_total", "counter", "Log records replayed at startup.").Sample(st.Records)
	stats.NewFamily(w, "nncell_wal_replay_applied_total", "counter", "Replayed records that mutated the index.").Sample(st.Applied)
	stats.NewFamily(w, "nncell_wal_replay_stale_total", "counter", "Replayed records already covered by the snapshot.").Sample(st.Stale)
	stats.NewFamily(w, "nncell_wal_torn_segments", "gauge", "Log segments that ended in a torn or corrupt tail.").Sample(st.TornSegments)
	stats.NewFamily(w, "nncell_recovery_duration_seconds", "gauge", "Wall-clock time of the startup WAL replay.").Sample(st.Duration.Seconds())
}
