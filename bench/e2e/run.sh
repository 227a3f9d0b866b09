#!/usr/bin/env bash
# The command BENCHMARK.json names.  Run from the repository root:
#
#   bash bench/e2e/run.sh --workload cdc-control --seed 1 --seconds 20 --trace 0
#
# Builds the server and the benchmark program from source (quietly, on
# stderr), then hands every argument to `ekgbench run`.  Standard
# output carries only the benchmark's metric lines and its final JSON
# line.
set -euo pipefail

# the dune cache would write outside the checkout
export DUNE_CACHE=disabled
dune build --root . bin/serve.exe bench/e2e/ekgbench.exe >&2
exec ./_build/default/bench/e2e/ekgbench.exe run \
  --server ./_build/default/bin/serve.exe "$@"
