#!/bin/sh
# Builds the benchmark and the gncg CLI it drives from source, then runs
# the benchmark with the given arguments, e.g.
#
#   sh benchmark/run.sh --workload dyn-greedy-n100 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
# Address-space randomization is turned off for the benchmark and every
# process it starts, where setarch allows it: with it on, the heap
# layout of each process alone moves the allocation-heavy workloads by
# up to 20% from run to run (see README.md).
set -e
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/gncg_bench.exe ./bin/gncg_cli.exe >&2
bench=./_build/default/benchmark/gncg_bench.exe
arch=$(uname -m)
if setarch "$arch" -R true 2>/dev/null; then
  exec setarch "$arch" -R "$bench" "$@"
fi
exec "$bench" "$@"
