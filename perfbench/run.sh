#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. Run from anywhere; it works in the checkout holding it.
set -eu
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
