#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload gateway-roundtrip --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories
# all live under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$build/config"
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
