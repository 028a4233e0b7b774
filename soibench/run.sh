#!/bin/sh
# Builds the benchmark and the soimap daemon from source, then runs one
# workload from the repository root, e.g.
#   sh soibench/run.sh --workload oneshot --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the result JSON.
set -eu
cd "$(dirname "$0")/.."
# Dune's shared cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./soibench/soibench.exe ./bin/soimap.exe 1>&2
exec ./_build/default/soibench/soibench.exe "$@"
