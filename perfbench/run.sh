#!/usr/bin/env bash
# Builds dphist-server, dphist-router and the benchmark from this tree,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (or $CARGO_TARGET_DIR when set), Go's build cache
# included.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -o "$build/bin/" ./cmd/dphist-server ./cmd/dphist-router
cd perfbench
go build -o "$build/bin/perfbench" .
for arg in "$@"; do
	if [ "$arg" = "1" ] && [ "${prev:-}" = "--trace" ]; then
		go build -o "$build/bin/perfbench-layers" ./layers
	fi
	prev=$arg
done
cd "$root"
exec "$build/bin/perfbench" -bin "$build/bin" "$@"
