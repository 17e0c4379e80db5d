#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the toolchain and the benchmark write stays under
# bench/out: the build cache, the binaries, scratch files, traces.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$bench/out"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/bin/bench" .)
cd "$bench/.."
exec "$out/bin/bench" "$@"
