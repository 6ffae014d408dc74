#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the binary, the Go build cache, checkpoints and
# spans. The module in perfbench/ imports the repository's packages
# through a replace directive, so the build fails outside a full
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
