#!/usr/bin/env bash
# Gate-name guard: fails, naming each entry, when a test, benchmark or
# fuzz target on the checked-in list (scripts/gated_tests.txt) is no
# longer defined. CI steps and make targets select their gates by name
# (-run, -bench, -fuzz), and go test passes when such a pattern matches
# nothing ("no tests to run", "no fuzz tests to fuzz"), so renaming a
# gated test would otherwise switch its gate off without a failure.
# Each listed package is compiled once by `go test -list .`, which
# prints its top-level test, benchmark and fuzz names and runs nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A names
status=0
while read -r pkg name || [[ -n $pkg ]]; do
  [[ -z $pkg || $pkg == \#* ]] && continue
  if [[ -z ${names[$pkg]+set} ]]; then
    names[$pkg]=$(go test -list . "$pkg")
  fi
  if ! grep -Fxq -- "$name" <<<"${names[$pkg]}"; then
    echo "gatecheck.sh: $name is selected by name but not defined in $pkg (go test -list '^$name\$' $pkg prints nothing)" >&2
    status=1
  fi
done <scripts/gated_tests.txt
exit $status
