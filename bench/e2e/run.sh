#!/usr/bin/env bash
# Build the server and the benchmark from source, then run the benchmark
# with the given arguments from the root of the checkout:
#
#   bash bench/e2e/run.sh --workload paper-hot --seed 1 --seconds 20 --trace 0
#
# The dune cache is off so nothing is written outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/htlq.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
