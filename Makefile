# Development workflow. `make check` is the pre-commit gate; bench-smoke
# gates the construction and query hot paths (see DESIGN.md §"Construction
# hot path" and §"Query engine"), bench-query regenerates BENCH_query.json.
# The system's own speed claims are measured by bench/ (BENCHMARK.json).
GO ?= go

.PHONY: check vet doc-check build test race bench-smoke bench-module fuzz-smoke bench-query bench

check: vet doc-check build test race bench-smoke bench-module fuzz-smoke

# gofmt -l prints the files it would change; any name is a failure. So is any
# line of cmd/ that names the single-index adapters or the snapshot sniff, or
# switches on a type: the binaries serve one index kind (shard.Sharded), and
# the twin must not grow back unnoticed. Nor may the page simulator reach the
# served stack again (its tests still hand nncell.Build and scan.New the pager
# those signatures take), or internal/xtree a second best-first search. The
# result cache is a library feature: no served binary may link it. A cell is
# one rectangle: the served stack may not name Decompose or Fragments, except
# where Sharded.Stats sums nncell.Stats.Fragments (the live cell count the
# benchmark reads). The arm64 vet compiles the portable build, so a missing
# !amd64 stub or a build-tag slip fails here too; go vet's asmdecl check holds
# the amd64 assembly to its Go declarations. Trees are built and queried,
# never edited: internal/xtree may not grow a Tree.Delete back. Three
# decisions have one implementation each: parallel batches claim work in internal/par only (and
# no other non-test Go waits on a sync.WaitGroup, except internal/loadgen,
# whose open-loop goroutines live for the whole run), the
# WAL frame checksum is computed by Log.Append and checked by Cursor.Next only
# (Replay parses through a Cursor), and the metrics text format is written by
# internal/stats/expo.go only. Nor may the AVX2 kernels keep a second path
# alive for their tests alone: every TEXT symbol of an internal/*/*_amd64.s
# (the kernels of internal/lp and internal/nncell, the CPU probe of
# internal/cpu) must be called from non-test Go of its own package other than
# its func declaration. A constraint selection is what its name says at every
# n: no Go file may name AutoThreshold, the switch that once ran NN-Direction
# under the name Correct.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	@if grep -rnE 'replica\.Single|IsSnapshotMagic|\.\(type\)' cmd/; then echo "cmd/ may not tell index kinds apart"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' '"repro/internal/pager"' internal/server internal/replica cmd/nnrouter; then echo "the served stack may not import internal/pager"; exit 1; fi
	@if grep -rn '"container/heap"' internal/xtree; then echo "internal/xtree has one best-first search, on QueryCtx's heaps"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' 'func \(t \*Tree\) Delete\(' internal/xtree; then echo "internal/xtree trees are built, never edited: no Tree.Delete"; exit 1; fi
	@if $(GO) list -deps ./cmd/nncell ./cmd/nnrouter ./cmd/loadgen | grep -x repro/internal/rescache; then echo "the served binaries may not link internal/rescache"; exit 1; fi
	@if grep -rnwE --include='*.go' --exclude='*_test.go' 'Decompose|Fragments' internal/server internal/shard internal/replica cmd/nncell cmd/nnrouter | grep -v 'out\.Fragments += st\.Fragments'; then echo "the served stack stores one rectangle per cell: it may not name Decompose or Fragments"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' 'next\.Add(1)' cmd internal | grep -v '^internal/par/'; then echo "parallel batches claim work through internal/par only"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' 'sync\.WaitGroup' cmd internal examples | grep -vE '^internal/(par|loadgen)/'; then echo "a batch of goroutines runs on internal/par only"; exit 1; fi
	@if awk '/^func /{fn=$$0} /crc32\.Checksum/ && fn !~ /^func \(l \*Log\) Append\(|^func \(c \*Cursor\) Next\(/ {print FILENAME ": " fn; bad=1} END{exit !bad}' $$(ls internal/wal/*.go | grep -v '_test\.go$$'); then echo "internal/wal checksums frames in Log.Append and Cursor.Next only"; exit 1; fi
	@if grep -rn --include='*.go' --exclude='*_test.go' '"# TYPE' cmd internal | grep -v '^internal/stats/expo\.go:'; then echo "the metrics text format has one writer, internal/stats/expo.go"; exit 1; fi
	@if grep -rn --include='*.go' 'AutoThreshold' .; then echo "Correct means Correct at every n: no Go file may name AutoThreshold"; exit 1; fi
	@for s in internal/*/*_amd64.s; do for f in $$(sed -nE 's/^TEXT ·([A-Za-z0-9_]+)\(SB\).*/\1/p' $$s); do grep -hE "(^|[^A-Za-z0-9_.])$$f\(" $$(ls $$(dirname $$s)/*.go | grep -v '_test\.go$$') | grep -vE "^[[:space:]]*//|^func $$f\(" | grep -q . || { echo "$$s: no non-test Go calls $$f"; exit 1; }; done; done

# README.md and DESIGN.md may quote only what the source defines: every
# nncell_* metric name must occur in non-test Go (a prefix form such as
# nncell_wal_* passes as the prefix of one that does), and every -flag must be
# one a cmd/ binary defines (fs.Int("name", … or fs.IntVar(&v, "name", …; or
# the prefix of one, as -bench-*) or one of the go tool's flags the docs use.
GO_TOOL_FLAGS = race run bench benchmem benchtime count cpu
doc-check:
	@bad=0; \
	for m in $$(grep -ohE 'nncell_[a-z0-9_]+' README.md DESIGN.md | sort -u); do \
		grep -rqF --include='*.go' --exclude='*_test.go' "$$m" cmd internal || { echo "doc-check: no source defines metric $$m"; bad=1; }; \
	done; \
	defined="$$(grep -ohE '(fs|flag)\.[A-Za-z0-9]+\((&[A-Za-z0-9.]+, )?"[a-z0-9-]+"' cmd/*/main.go | cut -d'"' -f2; printf '%s\n' $(GO_TOOL_FLAGS))"; \
	for f in $$(grep -ohE '(^|[ (])`?-[a-z][a-z0-9-]*' README.md DESIGN.md | sed -E 's/^[ (]?`?-//' | sort -u); do \
		echo "$$defined" | grep -q -- "^$$f" || { echo "doc-check: no binary defines flag -$$f"; bad=1; }; \
	done; \
	exit $$bad

build:
	$(GO) build ./...

# internal/lp and internal/nncell again on the portable Go kernels (the amd64
# assembly is chosen at start-up where the CPU has AVX2; the test flag
# switches it off).
test:
	$(GO) test ./...
	$(GO) test ./internal/lp/ ./internal/nncell/ -args -kernel=go

# Every package again, uncached and under the race detector (~5 min, nearly
# all of it internal/nncell). This is the whole gate for the serving lifecycle
# of the real binary (serve, SIGTERM drain, SIGKILL and WAL recovery, the
# 3-node kill -9 cluster), the injected-fault durability matrix, replication,
# and the op-sequence model of internal/nncell/ops_test.go, whose concurrent
# steps race readers, writers, Save and the lazy repair pool on every index
# configuration. All are ordinary tests of their packages, so none is
# selected by name and a renamed test cannot drop out of the gate.
race:
	$(GO) test -race -count 1 ./...

# One iteration of the hot-path benchmarks. BenchmarkSolveMBR and
# BenchmarkBuild run once per kernel set the CPU has (.../kernel=go, then
# .../kernel=avx2: the before/after row of an LP kernel change, whose
# pivots/op and lp_pivots/op may not move). BenchmarkSolveMBR fails unless the
# warm LP loop runs at 0 allocs/op, BenchmarkBuild/NN-Direction unless a build
# allocates less than once per cell (the neighbor-pool search, the LPs and the
# solved MBR run on the per-worker cellCtx scratch, every cell goes straight
# into its float32 slab row, and no tree is built) and, at n = 10^4, d = 8,
# unless the built index retains no more heap per point than coordinates,
# their byte codes (d B), float32 cell rows and the two directories take
# (<= 280 B: a resident tree or per-cell float64 rectangles trip it; the case
# also prints the build's ms/op), BenchmarkQueryNearest unless the warm NN
# query runs at 0 allocs/op and, at the served shape, takes at most 40
# distances a query (the code bound leaves about a dozen of its 220
# survivors; a bound that stops skipping trips it), BenchmarkQueryKNearest
# unless the warm k = 10 query does (the regexp's NN-Direction/d=8 selects
# both the n = 250 case and the served shape NN-Direction/d=8/n=10000, where
# a directory row is 157 words and the query kernels are the query, run once
# per kernel set the CPU has — .../kernel=go and .../kernel=avx2, the
# before/after row of a kernel change; both print folds/op and dists/op, the
# k = 10 query also passes/op, and fail unless every kernel set folds the same
# points in the same box passes);
# BenchmarkQueryStages times the served NN query's stages — row AND, the
# survivors listed with their distances (bounded at +Inf, the candidates
# query's list), the whole NN fold — and the k = 10 query's — the seed fold,
# the box pass's row AND with the seeds masked out, its fold — once per kernel
# set (the folds also print dists/op), the per-stage split of a kernel change; BenchmarkCellDirUpdate tracks
# the two directories' share of a cell recompute and of a point insert +
# delete, BenchmarkInsertEager one whole eager insert (ms, LP solves and cells
# recomputed per op), BenchmarkDynamicInsert concurrent inserts at 1, 2 and 4
# shards (the only record of shard-count scaling), BenchmarkShardedKNearest
# the k = 10 merge at the lib-mixed-d4 shape (folds/op over the shards
# visited), and the query-bench tool must still run end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSolveMBR|BenchmarkBuild/NN-Direction' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Nearest|KNearest)$$/NN-Direction/d=8|BenchmarkQueryStages|BenchmarkCellDirUpdate|BenchmarkInsertEager' -benchtime 1x ./internal/nncell/
	$(GO) test -run '^$$' -bench 'BenchmarkDynamicInsert|BenchmarkShardedKNearest' -benchtime 1x ./internal/shard/
	$(GO) run ./cmd/experiments -bench-query /tmp/BENCH_query_smoke.json -bench-n 60 -bench-dims 4

# Ten seconds of native fuzzing per target, on top of the seed corpora that
# `go test` already runs: the cell and point directories against their naive
# models, the AVX2 kernels against the Go loops bit for bit, the snapshot
# loader on arbitrary bytes, op sequences decoded from bytes against the scan
# (FuzzOps; minimising a new input stops the fuzzing, so it is held to 2 s),
# and the LP solvers against each other.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzCellDir' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzKernels' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzPointDir' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzLoad' -fuzztime 10s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzOps' -fuzztime 10s -fuzzminimizetime 2s ./internal/nncell/
	$(GO) test -run '^$$' -fuzz 'FuzzSolversAgree' -fuzztime 10s ./internal/lp/

# The repository's benchmark (bench/, BENCHMARK.json) is a module of its own,
# so the root's `go test ./...` never compiles it; this target does, so that a
# rename in the library cannot break the benchmark unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Full benchmark suite (figures + ablations + construction).
bench:
	$(GO) test -run '^$$' -bench . .

# Regenerate the machine-readable query-performance record (QPS, speedup of
# the cell directory over the paged cell X-tree, work counters) tracked across
# PRs, plus the large-n scale pass (n=10^5: directory vs paged tree, data
# X-tree and scan p50, cached vs uncached). The scale pass builds one
# NN-Direction index per (n, d), n = 10^4 and 10^5 at d = 4, 8, 16.
bench-query:
	$(GO) run ./cmd/experiments -bench-query BENCH_query.json -bench-scale-n 100000
