#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload cold_regular --seed 1 --seconds 16 --trace 0
#
# Everything the build leaves behind goes under .bench_build/ in the
# repository root, the Go build cache included, so a checkout is the only
# place written to (besides the run's own /dev/shm directory, see README.md).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"

# Build with the toolchain that is here, offline, and with no GOFLAGS or
# go.work from outside. XDG_CONFIG_HOME keeps the toolchain's telemetry
# counters in the checkout as well.
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	go build -C "$root" -o "$build/vxbenchmark" ./benchmark

exec "$build/vxbenchmark" -scratch "$build" "$@"
