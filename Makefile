# Development workflow. `make check` is the pre-commit gate; the bench
# targets track the construction and query hot paths (see DESIGN.md
# §"Construction hot path" and §"Query engine").
GO ?= go

.PHONY: check vet build test race serve-smoke crash-test stale-test cache-test route-test cluster-test bench-smoke bench-module fuzz-smoke bench-build bench-query bench-dynamic bench-bulk bench-serve bench-route bench

check: vet build test race serve-smoke crash-test stale-test cache-test route-test cluster-test bench-smoke bench-module fuzz-smoke

# gofmt -l prints the files it would change; any name is a failure.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The LP solver, the NN-cell builder, the sharded index, and the HTTP serving
# layer are the concurrency-sensitive packages (per-worker solver state,
# parallel build and affected-cell recompute, per-shard locking with fan-out
# reads, pooled query contexts shared by batch workers, and the admission
# limiter / graceful-drain machinery).
race:
	$(GO) test -race ./internal/nncell/ ./internal/lp/ ./internal/shard/ ./internal/server/ ./internal/wal/ ./internal/iofault/ ./internal/rescache/ ./internal/loadgen/ ./internal/replica/

# End-to-end serving lifecycle against the real binary: build an index, start
# `nncell serve`, answer a query, scrape /metrics, SIGTERM, drained exit.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count 1 ./cmd/nncell/

# The durability gate: the injected-fault matrix (torn WAL tails at every
# byte offset, failed writes/fsyncs, replay-vs-oracle equivalence, the
# rotate→snapshot→compact protocol) plus the SIGKILL-and-recover lifecycle
# of the real binary, serial and sharded.
crash-test:
	$(GO) vet ./internal/wal/ ./internal/iofault/
	$(GO) test -count 1 ./internal/iofault/ ./internal/wal/
	$(GO) test -count 1 -run 'WAL|Crash|Torn|Recover|Compaction|Readiness|Snapshot' ./internal/nncell/ ./internal/shard/ ./internal/server/
	$(GO) test -count 1 -run 'TestServeWALRecovery|TestServeLoadConflictFlags' ./cmd/nncell/

# The lazy-repair gate: exact serving while repairs are pending (batch and
# per-op inserts against the scan oracle), batch atomicity/rollback, the
# repair pool under mixed readers/writers, and the batch WAL crash matrix.
stale-test:
	$(GO) test -count 1 -run 'Stale|Repair|Batch|LazyDelete' ./internal/nncell/ ./internal/shard/ ./internal/wal/

# The cache-coherence gate: the fragment-keyed result cache must stay
# byte-identical to the uncached index under concurrent mixed churn
# (sharded, lazy repair, batch mutations), with the race detector on.
cache-test:
	$(GO) test -race -count 1 -short -run 'TestCacheCoherenceChurn' ./internal/rescache/

# The routing gate: grid-routed answers must be oracle-equivalent to the
# sequential scan under batched churn (boundary points, ±0.0 keys, concurrent
# readers, race detector on), grid routing must actually visit few shards,
# and grid snapshots must round-trip (plus v1 compat and corrupt-header
# rejection). Also covers the empty-bootstrap serve path.
route-test:
	$(GO) test -race -count 1 -run 'TestGrid|TestDeriveGrid|TestShardedPersist|TestShardedLoad|TestShardedNewEmpty|TestShardedKNearest' ./internal/shard/
	$(GO) test -count 1 -run 'TestServeGridEmptyBootstrap' ./cmd/nncell/

# The replication gate: the WAL shipping protocol under fault injection
# (durable-prefix boundaries, truncation at every byte offset of a shipped
# segment, torn mid-transfer streams, compaction races → re-bootstrap),
# the follower state machine and read router against fake backends, the
# lag-aware readiness/metrics surface, and the 3-node kill -9 acceptance
# harness (real processes + nnrouter: zero lost acked writes, continuous
# reads, rejoin + convergence, bitwise-identical answers; DESIGN.md §15).
cluster-test:
	$(GO) vet ./internal/replica/ ./cmd/nnrouter/
	$(GO) test -count 1 ./internal/replica/
	$(GO) test -count 1 -run 'TestSegmentsInfo|TestCursor|TestErrUnavailable|TestReadOnlyGate|TestReplSourceMounted|TestFollower|MaxStaleCells' ./internal/wal/ ./internal/server/ ./internal/nncell/
	$(GO) test -count 1 -run 'TestClusterKill9' ./cmd/nncell/

# One iteration of the hot-path benchmarks. BenchmarkSolveMBR fails unless the
# warm LP loop runs at 0 allocs/op, BenchmarkBuild/NN-Direction unless a build
# allocates its output only (the neighbor-pool search and the LPs run on the
# per-worker cellCtx scratch, and no tree is built) and, at n = 10^4, d = 8,
# unless the built index retains no more heap per point than coordinates,
# cells and the two directories take (a resident tree trips it; the case also
# prints the build's ms/op), BenchmarkQueryNearest unless the warm NN query
# runs at 0 allocs/op, BenchmarkQueryKNearest unless the warm k = 10 query
# does; BenchmarkCellDirUpdate tracks the two directories' share of a cell
# recompute and of a point insert + delete, BenchmarkInsertEager one whole
# eager insert (ms, LP solves and cells recomputed per op), and the
# query-bench tool must still run end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSolveMBR|BenchmarkBuild/NN-Direction' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Nearest|KNearest)$$/NN-Direction/d=8|BenchmarkCellDirUpdate|BenchmarkInsertEager' -benchtime 1x ./internal/nncell/
	$(GO) run ./cmd/experiments -bench-query /tmp/BENCH_query_smoke.json -bench-n 60 -bench-dims 4

# Ten seconds of native fuzzing per target, on top of the seed corpora that
# `go test` already runs: the cell and point directories against their naive
# models, the snapshot loader on arbitrary bytes, and the LP solvers against
# each other.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzCellDir' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzPointDir' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzLoad' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzSolversAgree' -fuzztime 10s ./internal/lp/

# The repository's benchmark (bench/, BENCHMARK.json) is a module of its own,
# so the root's `go test ./...` never compiles it; this target does, so that a
# rename in the library cannot break the benchmark unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Full benchmark suite (figures + ablations + construction).
bench:
	$(GO) test -run '^$$' -bench . .

# Regenerate the machine-readable construction-performance record that is
# tracked across PRs.
bench-build:
	$(GO) run ./cmd/experiments -bench-build BENCH_build.json

# Regenerate the machine-readable query-performance record (QPS, speedup of
# the cell directory over the paged cell X-tree, work counters) tracked across
# PRs, plus the large-n scale pass (n=10^5: directory vs paged tree, data
# X-tree and scan p50, cached vs uncached). The scale pass builds two
# 10^5-point indexes and takes a few minutes.
bench-query:
	$(GO) run ./cmd/experiments -bench-query BENCH_query.json -bench-scale-n 100000

# Regenerate the machine-readable dynamic-maintenance record: concurrent
# insert throughput at shard counts 1/2/4/8 (d=8) for base sizes 512 and
# 10^4, tracked across PRs.
bench-dynamic:
	$(GO) run ./cmd/experiments -bench-dynamic BENCH_dynamic.json

# Regenerate the machine-readable bulk-maintenance record: InsertBatch vs
# per-op Insert at n=10^4 and 10^5 (ack + flush), plus the auto-threshold
# constraint-selection trade. The 10^5 run takes several minutes.
bench-bulk:
	$(GO) run ./cmd/experiments -bench-bulk BENCH_bulk.json

# Regenerate the machine-readable serving-performance record: the open-loop
# Zipf hot-spot workload against the bare index, the result-cached index,
# and the cached index under insert churn (p50/p99, hit rate, invalidation
# counts, cache speedup).
bench-serve:
	$(GO) run ./cmd/experiments -bench-serve BENCH_serve.json

# Regenerate the machine-readable routing record: shards visited per NN query
# and query latency under hash vs grid routing at S=16/64, uniform and
# near-data workloads, every answer verified against the sequential scan.
bench-route:
	$(GO) run ./cmd/experiments -bench-route BENCH_route.json
