#!/usr/bin/env bash
# Inlining guard: fails, naming each function, when a function on the
# checked-in hot-path list (scripts/inline_hotpath.txt) no longer
# inlines in internal/core. The compiler's -m diagnostics are replayed
# from the build cache, so the check costs one cached build.
# `go build -gcflags=-m=2 ./internal/core` prints why a function does
# not inline (usually "function too complex: cost N exceeds budget 80").
set -euo pipefail
cd "$(dirname "$0")/.."

inlinable=$(go build -gcflags=-m ./internal/core 2>&1 | sed -n 's/^.*: can inline //p')
status=0
while read -r fn || [[ -n $fn ]]; do
  [[ -z $fn || $fn == \#* ]] && continue
  if ! grep -Fxq -- "$fn" <<<"$inlinable"; then
    echo "inlinecheck.sh: $fn no longer inlines in internal/core (see go build -gcflags=-m=2 ./internal/core)" >&2
    status=1
  fi
done <scripts/inline_hotpath.txt
exit $status
