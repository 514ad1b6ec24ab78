#!/usr/bin/env bash
# Build the benchmark from source, make sure the serial-oracle verdicts for
# this (workload, seed) are cached, then measure in a fresh process:
#
#   bash perfbench/run.sh --workload bn_cold --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build and oracle output go to stderr;
# the last line of stdout is the result object.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/perfbench.ml ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exe=./_build/default/perfbench/perfbench.exe
"$exe" oracle "$@" >&2
exec "$exe" measure "$@"
