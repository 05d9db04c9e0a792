#!/usr/bin/env bash
# Builds seqserved and the benchmark program from this checkout's sources,
# then runs the benchmark with the given arguments. Every build and run
# artifact stays under .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload similarity --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root" && go build -o "$build/seqserved" ./cmd/seqserved)
(cd "$here" && go build -o "$build/perfbench" .)

exec "$build/perfbench" -bin "$build/seqserved" -work "$build" "$@"
