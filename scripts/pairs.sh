#!/usr/bin/env bash
# Alternating parent/change pairs of the repository's benchmark: the
# same-host comparison a performance change is judged by.
#
#   scripts/pairs.sh [--seed S] PARENT [N] [WORKLOAD...]
#
# PARENT is any commit; it is extracted (git archive, no network) into a
# temporary directory, removed on exit. For each workload (default: every
# workload BENCHMARK.json declares), N pairs (default 6) of
#   bash bench/run.sh --workload W --seed S --seconds 25 --trace 0
# run alternately in the parent and in this working tree, the side that
# goes first swapping every pair; S (default 1) picks the generated
# inputs, so a held-out repeat is --seed 2. Each run builds from its own
# checkout.
# The summary (scripts/pairs/main.go) gives, per workload and end-to-end
# metric, the parent's median and IQR, the change's median, the pairs the
# change won and the bound check against BENCHMARK.json; it exits 1 when
# a median is worse than its bound allows, the failed share rose or more
# of the change's runs failed. After its pairs, each workload also gets
# one traced run per side (--trace 1), and the summary prints the
# per-layer deltas of the parse, plan, evaluation and facade rungs and
# of the write path's (refresh time, clones and freezes per write; the
# list is layers in scripts/pairs/main.go) beside the pairs table: the
# attribution a gain needs. The raw contract lines stay in the directory
# it prints.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seed=1
if [ $# -ge 2 ] && [ "$1" = --seed ]; then
  seed=$2
  shift 2
fi
if [ $# -lt 1 ] || ! [[ "$seed" =~ ^[0-9]+$ ]]; then
  echo "usage: scripts/pairs.sh [--seed S] PARENT [N] [WORKLOAD...]" >&2
  exit 2
fi
parent="$(git -C "$root" rev-parse --verify "$1^{commit}")"
shift
n=6
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
  n=$1
  shift
fi

work="$(mktemp -d)"
out="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$parent" | tar -x -C "$work"

cd "$root"
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(go run ./scripts/pairs BENCHMARK.json)
fi

bench() { # side checkout workload [trace]
  # One line per run, so line i of either side is pair i: a run that
  # fails or reports nothing leaves a placeholder the summary counts as a
  # failed run. A traced run's line goes to its own file.
  local line file="$out/$3.$1"
  [ "${4:-0}" = 1 ] && file="$file.trace"
  line="$(bash "$2/bench/run.sh" --workload "$3" --seed "$seed" --seconds 25 --trace "${4:-0}" | tail -n 1)" || line=""
  echo "${line:-failed}" >> "$file"
}
for w in "${workloads[@]}"; do
  for i in $(seq "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
      bench parent "$work" "$w"
      bench change "$root" "$w"
    else
      bench change "$root" "$w"
      bench parent "$work" "$w"
    fi
    echo "pairs: $w pair $i/$n done" >&2
  done
  bench parent "$work" "$w" 1
  bench change "$root" "$w" 1
  echo "pairs: $w traced runs done" >&2
done

echo "pairs: parent $parent, seed $seed, $n pairs per workload, runs in $out"
go run ./scripts/pairs BENCHMARK.json "$out" "${workloads[@]}"
