#!/usr/bin/env bash
# Runs the detector throughput benchmarks and refreshes BENCH_core.json,
# the machine-readable perf baseline tracked in the repo root. The
# recorded git SHA ties every baseline to the commit that produced it.
# Any failing step aborts the script with a non-zero exit (surfaced by
# `make bench`), so a broken benchmark can never silently leave a stale
# BENCH_core.json behind.
set -euo pipefail
cd "$(dirname "$0")/.."

trap 'code=$?; echo "bench.sh: FAILED (exit $code)" >&2; exit $code' ERR

go test -bench BenchmarkDetector -benchtime=1s -run '^$' ./internal/stream/
# spotbench resolves and records the producing git SHA itself
# (overridable with -gitsha). Extra flags pass straight through — e.g.
#   ./scripts/bench.sh -cpuprofile /tmp/spot.prof
# profiles the throughput grid, and the JSON carries ns_per_point /
# allocs_per_point per configuration. `make microbench` complements
# this artifact with the table-level and per-point microbenchmarks and
# their zero-alloc gates.
go run ./cmd/spotbench -out BENCH_core.json "$@"
