#!/usr/bin/env bash
# A/B comparison of two committed revisions on the benchmark.
#
#   benchmark/ab.sh PARENT_REV CHANGE_REV [PAIRS] [SEED]
#
# Both revisions are exported with `git archive` into a fresh directory
# under $TMPDIR, and each export gets CHANGE_REV's benchmark/ and
# BENCHMARK.json, so both sides run identical benchmark code and settings.
# Each side is built once.  Then PAIRS (default 10) pairs run back to
# back, alternating which side goes first; every run is `main.exe run`
# (all workloads, each in its own process) with the same SEED (default
# 1).  Finally `main.exe compare` prints each side's median and quartiles
# and one verdict per workload and end-to-end metric.  The result files
# stay in the printed work directory; the source exports are removed.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT_REV CHANGE_REV [PAIRS] [SEED]" >&2
  exit 2
fi
parent_rev=$1
change_rev=$2
pairs=${3:-10}
seed=${4:-1}

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/geomix-ab.XXXXXX")
trap 'rm -rf "$work/parent" "$work/change"' EXIT
echo "work directory: $work"

export_side() { # SIDE REV
  local dir=$work/$1
  mkdir -p "$dir"
  git -C "$repo" archive "$2" | tar -x -C "$dir"
  rm -rf "$dir/benchmark" "$dir/BENCHMARK.json"
  git -C "$repo" archive "$change_rev" benchmark BENCHMARK.json | tar -x -C "$dir"
  (cd "$dir" && dune build --root . --display quiet ./benchmark/main.exe)
  git -C "$repo" rev-parse "$2^{commit}" > "$work/$1.commit"
}
export_side parent "$parent_rev"
export_side change "$change_rev"
mkdir -p "$work/results/parent" "$work/results/change"

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    out=$work/results/$side/pair-$(printf %02d "$i")
    echo "pair $i: $side"
    (cd "$work/$side" &&
      GEOMIX_BENCH_COMMIT=$(cat "$work/$side.commit") \
        ./_build/default/benchmark/main.exe run --seed "$seed" --out "$out" > "$out.log" 2>&1) ||
      echo "pair $i: $side reported failures (see $out.log)"
  done
done

"$work/change/_build/default/benchmark/main.exe" compare \
  --spec "$work/change/BENCHMARK.json" "$work/results/parent" "$work/results/change"
