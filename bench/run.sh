#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it): build the bench
# program from source, then run it with whatever flags were given.
#
#   bash bench/run.sh                                      # all workloads, timed + traced,
#                                                          # into bench/results/latest.json
#   bash bench/run.sh --workload served.scan --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -agree bench/results/a.json bench/results/b.json
#
# Everything the build and the run write stays inside the checkout: the
# binary and Go's build cache under .bench_build/, WAL scratch, trace.jsonl
# and result files under bench/results/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

# bench/ is a module of its own (idl/bench, replacing idl with the
# checkout around it), so the build runs from inside it. Nothing is
# fetched: the only dependency is the repository itself.
(
  cd bench
  GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
  GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off \
    go build -buildvcs=false -o "$build/idl-bench" .
)

# go build happens before any clock starts; the program is exec'd so its
# exit status and its last line of output are the command's own.
exec "$build/idl-bench" "$@"
